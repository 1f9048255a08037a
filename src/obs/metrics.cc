#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <unordered_map>

#include "obs/counter_table.hh"
#include "obs/trace.hh"

namespace adcache::obs
{

const char *
metricKindName(MetricKind kind)
{
    return kind == MetricKind::Counter ? "counter" : "gauge";
}

const MetricSample *
MetricsSnapshot::find(const std::string &name,
                      const std::string &key,
                      const std::string &val) const
{
    for (const MetricSample &s : samples) {
        if (s.name != name)
            continue;
        if (key.empty())
            return &s;
        for (const auto &[k, v] : s.labels)
            if (k == key && v == val)
                return &s;
    }
    return nullptr;
}

void
MetricsSink::counter(std::string name, MetricLabels labels,
                     double v, std::string help)
{
    MetricSample s;
    s.name = std::move(name);
    s.help = std::move(help);
    s.kind = MetricKind::Counter;
    s.labels = std::move(labels);
    s.value = v;
    out_->push_back(std::move(s));
}

void
MetricsSink::gauge(std::string name, MetricLabels labels, double v,
                   std::string help)
{
    MetricSample s;
    s.name = std::move(name);
    s.help = std::move(help);
    s.kind = MetricKind::Gauge;
    s.labels = std::move(labels);
    s.value = v;
    out_->push_back(std::move(s));
}

void
MetricsRegistry::addCollector(Collector fn)
{
    std::lock_guard<std::mutex> lock(mtx_);
    collectors_.push_back(std::move(fn));
}

MetricsSnapshot
MetricsRegistry::scrape() const
{
    std::vector<Collector> collectors;
    {
        std::lock_guard<std::mutex> lock(mtx_);
        collectors = collectors_;
    }
    // Collectors run outside the registry lock: they take component
    // locks (shard mutexes, the pump's).
    MetricsSnapshot snap;
    MetricsSink sink(&snap.samples);
    for (const Collector &fn : collectors)
        fn(sink);
    return snap;
}

namespace
{

void
appendEscaped(std::string &out, const std::string &s,
              bool escapeQuote)
{
    for (char c : s) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '"':
            if (escapeQuote) {
                out += "\\\"";
                break;
            }
            [[fallthrough]];
          default:
            out += c;
        }
    }
}

void
appendLabels(std::string &out, const MetricLabels &labels)
{
    if (labels.empty())
        return;
    out += '{';
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            out += ',';
        first = false;
        out += k;
        out += "=\"";
        appendEscaped(out, v, /*escapeQuote=*/true);
        out += '"';
    }
    out += '}';
}

void
appendValue(std::string &out, double v)
{
    char buf[64];
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

} // namespace

std::string
renderPrometheus(const MetricsSnapshot &snap)
{
    // The exposition format wants all lines of a family in one
    // group, but collectors looping shards interleave families:
    // render family by family, in first-appearance order, samples
    // in scrape order within one.
    std::unordered_map<std::string_view, std::size_t> rank;
    std::vector<const MetricSample *> grouped;
    for (const MetricSample &s : snap.samples) {
        rank.try_emplace(s.name, rank.size());
        grouped.push_back(&s);
    }
    std::stable_sort(grouped.begin(), grouped.end(),
                     [&](const MetricSample *a, const MetricSample *b) {
                         return rank[a->name] < rank[b->name];
                     });

    std::string out;
    out.reserve(snap.samples.size() * 64);
    // HELP/TYPE are emitted once per family, at its first sample;
    // later samples of the family (other label sets) print bare.
    std::vector<std::string> announced;
    auto announce = [&](const MetricSample &s) {
        if (std::find(announced.begin(), announced.end(), s.name) !=
            announced.end())
            return;
        announced.push_back(s.name);
        if (!s.help.empty()) {
            out += "# HELP ";
            out += s.name;
            out += ' ';
            appendEscaped(out, s.help, /*escapeQuote=*/false);
            out += '\n';
        }
        out += "# TYPE ";
        out += s.name;
        out += ' ';
        out += metricKindName(s.kind);
        out += '\n';
    };

    for (const MetricSample *s : grouped) {
        announce(*s);
        out += s->name;
        appendLabels(out, s->labels);
        out += ' ';
        appendValue(out, s->value);
        out += '\n';
    }
    return out;
}

CounterTable<std::uint64_t>
traceCounterTable()
{
    using Value = CounterValue<std::uint64_t>;
#define ADCACHE_VALUE_FORMULA(e)                                          \
    Value{[]([[maybe_unused]] const std::uint64_t &s,                     \
             unsigned) -> std::uint64_t { return e; }}
    static constexpr Value values[] = {
        ADCACHE_TRACE_COUNTERS(ADCACHE_COUNTER_VALUE)};
    return {kTraceCounterRows, values};
}

void
registerTraceMetrics(MetricsRegistry &reg)
{
    reg.addCollector([](MetricsSink &sink) {
        const std::vector<std::uint64_t> rings = perRingDrops();
        forEachCounter<std::uint64_t>(
            traceCounterTable(), droppedTotal(), rings, 0,
            [&](const CounterSample &c) { collectSample(sink, c, "ring"); });
    });
}

} // namespace adcache::obs
