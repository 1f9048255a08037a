/**
 * @file
 * Live metrics plane of the observability subsystem: the
 * MetricsRegistry every serving-side component registers into, plus
 * Prometheus text-exposition rendering of its scrapes.
 *
 * A component registers a scrape-time collector (addCollector) that
 * reads the counters it already keeps, under its own
 * synchronisation, and appends one sample per counter-table row
 * (obs/counter_table.hh) — the KV cache and service, the socket
 * transport, the trace rings, the drift pump. The serving path pays
 * nothing for being observable (the perf_regress `metrics-overhead`
 * gate enforces this: a 1 Hz scrape stays under 1% of the kv read
 * path).
 *
 * scrape() runs the collectors in registration order and returns a
 * MetricsSnapshot; renderPrometheus() turns one into the Prometheus
 * text exposition format (version 0.0.4): every family one
 * contiguous group, in first-appearance order, escaped label values.
 */

#ifndef ADCACHE_OBS_METRICS_HH
#define ADCACHE_OBS_METRICS_HH

#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace adcache::obs
{

/** Label set of one metric instance, in render order. */
using MetricLabels =
    std::vector<std::pair<std::string, std::string>>;

/** What a metric family reports as its # TYPE. */
enum class MetricKind
{
    Counter,
    Gauge,
};

/** Printable Prometheus type name ("counter", "gauge"). */
const char *metricKindName(MetricKind kind);

/** One sampled metric in a scrape. */
struct MetricSample
{
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::Counter;
    MetricLabels labels;
    double value = 0.0;
};

/** One scrape: every collector's samples, in registration order. */
struct MetricsSnapshot
{
    std::vector<MetricSample> samples;

    /** First sample named @p name carrying label (@p key == @p val);
     *  empty key matches any labels. nullptr if absent. */
    const MetricSample *find(const std::string &name,
                             const std::string &key = "",
                             const std::string &val = "") const;
};

/** Scrape-time sink collectors append samples through. */
class MetricsSink
{
  public:
    explicit MetricsSink(std::vector<MetricSample> *out) : out_(out)
    {
    }

    void counter(std::string name, MetricLabels labels, double v,
                 std::string help = "");
    void gauge(std::string name, MetricLabels labels, double v,
               std::string help = "");

  private:
    std::vector<MetricSample> *out_;
};

/** The registry (see file comment). Thread-safe: registration and
 *  scrape may run from any threads. */
class MetricsRegistry
{
  public:
    using Collector = std::function<void(MetricsSink &)>;

    /** Register a scrape-time collector; what it reads must outlive
     *  every later scrape(). */
    void addCollector(Collector fn);

    /** Run every collector, in registration order. */
    MetricsSnapshot scrape() const;

  private:
    mutable std::mutex mtx_; //!< guards collectors_
    std::vector<Collector> collectors_;
};

/** Render @p snap in the Prometheus text exposition format: the
 *  samples of one family form one group (HELP/TYPE once, at its
 *  head), families in order of first appearance, samples in scrape
 *  order within a family. */
std::string renderPrometheus(const MetricsSnapshot &snap);

/**
 * Register the trace plane's own health into @p reg: whether tracing
 * is compiled/enabled and each ring's dropped-event count
 * (adcache_trace_dropped_total{ring="N"}) — silent trace loss
 * becomes a live, scrapeable signal instead of a JSONL header
 * footnote.
 */
void registerTraceMetrics(MetricsRegistry &reg);

} // namespace adcache::obs

#endif // ADCACHE_OBS_METRICS_HH
