#include "obs/metrics.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <unordered_map>

#include "obs/counter_table.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace adcache::obs
{

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "untyped";
}

namespace detail
{

/**
 * One thread's slot array, grown in fixed chunks. Only the owning
 * thread writes cells; the scrape thread reads them, and discovers
 * freshly-allocated chunks through the release/acquire pair on the
 * chunk pointer. Cells are NOT padded apart: adjacent slots are only
 * ever written by the same thread, so there is no cross-thread false
 * sharing to pad away (distinct shards are distinct allocations).
 */
class MetricsShard
{
  public:
    static constexpr std::uint32_t kChunkSlots = 256;
    static constexpr std::uint32_t kMaxChunks = 64;

    MetricsShard() = default;

    ~MetricsShard()
    {
        for (auto &c : chunks_)
            delete[] c.load(std::memory_order_relaxed);
    }

    MetricsShard(const MetricsShard &) = delete;
    MetricsShard &operator=(const MetricsShard &) = delete;

    /** Owning thread only: the cell for @p slot, allocating its
     *  chunk on first touch. */
    std::atomic<std::uint64_t> &
    cell(std::uint32_t slot)
    {
        const std::uint32_t ci = slot / kChunkSlots;
        adcache_assert(ci < kMaxChunks);
        std::atomic<std::uint64_t> *chunk =
            chunks_[ci].load(std::memory_order_relaxed);
        if (chunk == nullptr) {
            chunk = new std::atomic<std::uint64_t>[kChunkSlots]();
            chunks_[ci].store(chunk, std::memory_order_release);
        }
        return chunk[slot % kChunkSlots];
    }

    /** Any thread: current value of @p slot (0 if never touched). */
    std::uint64_t
    read(std::uint32_t slot) const
    {
        const std::uint32_t ci = slot / kChunkSlots;
        if (ci >= kMaxChunks)
            return 0;
        const std::atomic<std::uint64_t> *chunk =
            chunks_[ci].load(std::memory_order_acquire);
        if (chunk == nullptr)
            return 0;
        return chunk[slot % kChunkSlots].load(
            std::memory_order_relaxed);
    }

  private:
    std::atomic<std::atomic<std::uint64_t> *> chunks_[kMaxChunks] =
        {};
};

} // namespace detail

class MetricsRegistryImpl
{
  public:
    detail::Family *
    findOrCreate(MetricKind kind, const std::string &name,
                 const std::string &help,
                 const MetricLabels &labels,
                 std::uint32_t slotsNeeded)
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (auto &f : families)
            if (f->name == name && f->labels == labels) {
                adcache_assert(f->kind == kind);
                return f.get();
            }
        auto f = std::make_unique<detail::Family>();
        f->owner = this;
        f->kind = kind;
        f->name = name;
        f->help = help;
        f->labels = labels;
        f->slot = nextSlot;
        nextSlot += slotsNeeded;
        families.push_back(std::move(f));
        return families.back().get();
    }

    /** The calling thread's shard, created at its first use. Only
     *  the holder of a thread slot publishes into it. */
    detail::MetricsShard &
    localShard()
    {
        const unsigned slot = threadSlot();
        detail::MetricsShard *shard =
            bySlot[slot].load(std::memory_order_relaxed);
        if (shard == nullptr) {
            std::lock_guard<std::mutex> lock(mtx);
            shard = shards.emplace_back(new detail::MetricsShard).get();
            bySlot[slot].store(shard, std::memory_order_relaxed);
        }
        return *shard;
    }

    std::uint64_t
    sumSlot(std::uint32_t slot) const
    {
        std::uint64_t total = 0;
        for (const auto &s : shards)
            total += s->read(slot);
        return total;
    }

    mutable std::mutex mtx;
    std::vector<std::unique_ptr<detail::Family>> families;
    std::uint32_t nextSlot = 0;
    /** Every shard, for scrapes (under mtx), and each thread slot's. */
    std::vector<std::unique_ptr<detail::MetricsShard>> shards;
    std::atomic<detail::MetricsShard *> bySlot[kMaxRecordingThreads] = {};
    std::vector<std::function<void(MetricsSink &)>> collectors;
};

void
Counter::inc(std::uint64_t n)
{
    if (family_ == nullptr)
        return;
    std::atomic<std::uint64_t> &c =
        family_->owner->localShard().cell(family_->slot);
    // Owner-thread-only cell: load+store beats a lock-prefixed RMW.
    c.store(c.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
}

std::uint64_t
Counter::value() const
{
    if (family_ == nullptr)
        return 0;
    MetricsRegistryImpl *impl = family_->owner;
    std::lock_guard<std::mutex> lock(impl->mtx);
    return impl->sumSlot(family_->slot);
}

void
Gauge::set(double v)
{
    if (family_ != nullptr)
        family_->gauge.store(v, std::memory_order_relaxed);
}

double
Gauge::value() const
{
    if (family_ == nullptr)
        return 0.0;
    return family_->gauge.load(std::memory_order_relaxed);
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

MetricsRegistry::MetricsRegistry()
    : impl_(std::make_unique<MetricsRegistryImpl>())
{
}

MetricsRegistry::~MetricsRegistry() = default;

Counter
MetricsRegistry::counter(const std::string &name,
                         const std::string &help,
                         const MetricLabels &labels)
{
    return Counter(impl_->findOrCreate(MetricKind::Counter, name,
                                       help, labels, 1));
}

Gauge
MetricsRegistry::gauge(const std::string &name,
                       const std::string &help,
                       const MetricLabels &labels)
{
    // Gauges live in the Family's own atomic, no shard slot.
    return Gauge(impl_->findOrCreate(MetricKind::Gauge, name, help,
                                     labels, 0));
}

HistogramHandle
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help,
                           const MetricLabels &labels,
                           std::shared_ptr<LatencyHistogram> hist)
{
    detail::Family *f = impl_->findOrCreate(MetricKind::Histogram, name,
                                            help, labels, 0);
    std::lock_guard<std::mutex> lock(impl_->mtx);
    if (hist)
        f->hist = std::move(hist);
    else if (!f->hist)
        f->hist = std::make_shared<LatencyHistogram>();
    return HistogramHandle(f->hist);
}

void
MetricsRegistry::addCollector(std::function<void(MetricsSink &)> fn)
{
    std::lock_guard<std::mutex> lock(impl_->mtx);
    impl_->collectors.push_back(std::move(fn));
}

MetricsSnapshot
MetricsRegistry::scrape() const
{
    MetricsSnapshot snap;
    std::vector<std::function<void(MetricsSink &)>> collectors;
    {
        std::lock_guard<std::mutex> lock(impl_->mtx);
        for (const auto &f : impl_->families) {
            MetricSample s;
            s.name = f->name;
            s.help = f->help;
            s.kind = f->kind;
            s.labels = f->labels;
            switch (f->kind) {
              case MetricKind::Counter:
                s.value = double(impl_->sumSlot(f->slot));
                break;
              case MetricKind::Gauge:
                s.value = f->gauge.load(std::memory_order_relaxed);
                break;
              case MetricKind::Histogram: {
                // Each le edge is a fine-bucket edge: fold the fine
                // buckets up to it into its count.
                const LatencySnapshot h = f->hist->snapshot();
                s.buckets.assign(kHistBuckets + 1, 0);
                unsigned le = 0;
                for (unsigned b = 0; b < kLatencyBuckets; ++b) {
                    while (le < kHistBuckets &&
                           latencyBucketEdge(b) >
                               std::uint64_t(1) << (kHistLoBit + le))
                        ++le;
                    s.buckets[le] += h.bucket(b);
                }
                s.count = h.count();
                s.sum = double(h.sumNs());
                break;
              }
            }
            snap.samples.push_back(std::move(s));
        }
        collectors = impl_->collectors;
    }
    // Collectors run outside the registry lock: they may grab
    // component locks (shard mutexes) that themselves protect code
    // holding metric handles.
    MetricsSink sink(&snap.samples);
    for (const auto &fn : collectors)
        fn(sink);
    return snap;
}

std::size_t
MetricsRegistry::familyCount() const
{
    std::lock_guard<std::mutex> lock(impl_->mtx);
    return impl_->families.size();
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

/** One extra label appended to a family's set (for le="..."). */
void
appendLabelsPlus(std::string &out, const MetricLabels &labels,
                 const std::string &key, const std::string &val)
{
    out += '{';
    for (const auto &[k, v] : labels) {
        out += k;
        out += "=\"";
        appendEscaped(out, v, /*escapeQuote=*/true);
        out += "\",";
    }
    out += key;
    out += "=\"";
    appendEscaped(out, val, /*escapeQuote=*/true);
    out += "\"}";
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
    // group, but registration interleaves families (per-shard
    // gauges created shard by shard, collectors looping shards):
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

    for (const MetricSample *sample : grouped) {
        const MetricSample &s = *sample;
        announce(s);
        if (s.kind != MetricKind::Histogram) {
            out += s.name;
            appendLabels(out, s.labels);
            out += ' ';
            appendValue(out, s.value);
            out += '\n';
            continue;
        }
        std::uint64_t cum = 0;
        for (unsigned b = 0; b < s.buckets.size(); ++b) {
            cum += s.buckets[b];
            out += s.name;
            out += "_bucket";
            std::string le;
            if (b >= kHistBuckets) {
                le = "+Inf";
            } else {
                char buf[32];
                std::snprintf(buf, sizeof buf, "%" PRIu64,
                              std::uint64_t(1)
                                  << (kHistLoBit + b));
                le = buf;
            }
            appendLabelsPlus(out, s.labels, "le", le);
            out += ' ';
            appendValue(out, double(cum));
            out += '\n';
        }
        out += s.name;
        out += "_sum";
        appendLabels(out, s.labels);
        out += ' ';
        appendValue(out, s.sum);
        out += '\n';
        out += s.name;
        out += "_count";
        appendLabels(out, s.labels);
        out += ' ';
        appendValue(out, double(s.count));
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

namespace
{

__attribute__((noinline)) void
counterCostSink(std::uint64_t v)
{
    asm volatile("" : : "r"(v) : "memory");
}

/**
 * Marginal cost of @p op: the same paired-loop shape as
 * measureGateCostNs. A serial dependency chain keeps both loops
 * honest, and the difference is the cost of one op(i).
 */
template <typename Op>
double
marginalCostNs(Op op)
{
    constexpr int kIters = 1 << 18;
    constexpr int kReps = 7;

    auto timeLoop = [](auto body) {
        double best = 1e18;
        for (int rep = 0; rep < kReps; ++rep) {
            const std::uint64_t t0 = nowNs();
            std::uint64_t acc = 1;
            for (int i = 0; i < kIters; ++i)
                acc = body(acc, i);
            counterCostSink(acc);
            const std::uint64_t t1 = nowNs();
            best = std::min(best, double(t1 - t0));
        }
        return best / kIters;
    };

    const double plain =
        timeLoop([](std::uint64_t acc, int i) -> std::uint64_t {
            return acc * 2654435761u + unsigned(i);
        });
    const double timed =
        timeLoop([&](std::uint64_t acc, int i) -> std::uint64_t {
            op(i);
            return acc * 2654435761u + unsigned(i);
        });
    return std::max(0.0, timed - plain);
}

} // namespace

double
measureCounterCostNs(MetricsRegistry &reg)
{
    Counter c = reg.counter("adcache_bench_inc_total",
                            "counter-cost measurement scratch");
    c.inc(); // claim the thread slot, shard and chunk before timing
    return marginalCostNs([&](int) { c.inc(); });
}

double
measureHistogramCostNs(MetricsRegistry &reg)
{
    HistogramHandle h = reg.histogram("adcache_bench_observe_ns",
                                      "histogram-cost measurement scratch");
    h.observe(1); // claim the thread slot + cell before timing
    // Spread samples over ~1 us .. ~1 ms so bucket indexing runs
    // for real.
    return marginalCostNs(
        [&](int i) { h.observe(std::uint64_t(1000 + (i & 1023) * 997)); });
}

} // namespace adcache::obs
