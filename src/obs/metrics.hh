/**
 * @file
 * Live metrics plane of the observability subsystem: a lock-cheap
 * MetricsRegistry every serving-side component registers into, plus
 * Prometheus text-exposition rendering of its scrapes.
 *
 * Two registration styles, chosen by where the counter lives:
 *
 *  - HANDLES (Counter / Gauge / HistogramHandle): for components
 *    that do not already keep the count — server transports, the
 *    YCSB driver. Increments go to a per-thread shard cell (relaxed
 *    atomics on thread-private cache lines, no RMW contention); a
 *    scrape merges every thread's shard. A histogram family owns a
 *    LatencyHistogram, whose per-thread cells work the same way
 *    (obs/latency.hh). A default-constructed handle is inert (one
 *    predictable null check), so instrumented code needs no "is
 *    telemetry on" plumbing.
 *
 *  - COLLECTORS (addCollector): for components that already maintain
 *    counters under their own synchronisation — KvShard/
 *    AdaptiveKvCache, the trace rings. The callback samples them at
 *    scrape time into the snapshot, so the component's hot path pays
 *    NOTHING for being observable (the perf_regress
 *    `metrics-overhead` gate enforces this: the kv read path budget
 *    is < 1%, and the scrape itself amortises to noise at 1 Hz).
 *
 * A scrape() walks families in registration order, merges thread
 * shards, runs collectors, and returns a MetricsSnapshot;
 * renderPrometheus() turns one into the Prometheus text exposition
 * format (version 0.0.4): every family one contiguous group, in
 * first-appearance order, escaped label values, cumulative
 * histogram buckets with le/+Inf, _sum and _count.
 */

#ifndef ADCACHE_OBS_METRICS_HH
#define ADCACHE_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/latency.hh"

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
    Histogram,
};

/** Printable Prometheus type name ("counter", ...). */
const char *metricKindName(MetricKind kind);

/** The `le` edges a histogram family renders: powers of two from
 *  1 << kHistLoBit to 1 << kHistHiBit nanoseconds (~1 us .. ~1 s),
 *  then +Inf. Each is an edge of the LatencyHistogram bucket map, so
 *  its cumulative count is exact. */
inline constexpr unsigned kHistLoBit = 10;
inline constexpr unsigned kHistHiBit = 30;
inline constexpr unsigned kHistBuckets = kHistHiBit - kHistLoBit + 1;

class MetricsRegistryImpl;

namespace detail
{

class MetricsShard;

/** One registered (name, labels) instance. */
struct Family
{
    MetricsRegistryImpl *owner = nullptr;
    MetricKind kind = MetricKind::Counter;
    std::string name;
    std::string help;
    MetricLabels labels;
    /** Counters: their slot in the per-thread shards. */
    std::uint32_t slot = 0;
    /** Gauges are last-writer-wins, not mergeable: one cell. */
    std::atomic<double> gauge{0.0};
    /** Histograms own their per-thread cells. */
    std::shared_ptr<LatencyHistogram> hist;
};

} // namespace detail

/** Monotone event-count handle (see file comment). Copyable;
 *  default-constructed handles are inert. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1);

    /** Summed over every thread's shard (scrape-coherent enough for
     *  tests; prefer scrape() for reports). */
    std::uint64_t value() const;

    bool attached() const { return family_ != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Counter(detail::Family *family) : family_(family) {}
    detail::Family *family_ = nullptr;
};

/** Last-writer-wins instantaneous value handle. */
class Gauge
{
  public:
    Gauge() = default;

    void set(double v);
    double value() const;

    bool attached() const { return family_ != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Gauge(detail::Family *family) : family_(family) {}
    detail::Family *family_ = nullptr;
};

/** Latency distribution handle: records into the family's
 *  LatencyHistogram, which a scrape reads live. */
class HistogramHandle
{
  public:
    HistogramHandle() = default;

    void
    observe(std::uint64_t ns)
    {
        if (hist_)
            hist_->record(ns);
    }

    /** The family's distribution so far (empty when inert). */
    LatencySnapshot
    snapshot() const
    {
        return hist_ ? hist_->snapshot() : LatencySnapshot{};
    }

    bool attached() const { return hist_ != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit HistogramHandle(std::shared_ptr<LatencyHistogram> hist)
        : hist_(std::move(hist))
    {
    }
    std::shared_ptr<LatencyHistogram> hist_;
};

/** One sampled metric in a scrape. */
struct MetricSample
{
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::Counter;
    MetricLabels labels;
    /** Counter / gauge value. */
    double value = 0.0;
    /** Histogram counts per `le` edge (size kHistBuckets + 1, last =
     *  +Inf), summed from the fine buckets — NON-cumulative here;
     *  rendering accumulates. */
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0; //!< histogram observation count
    double sum = 0.0;        //!< histogram observation sum
};

/** One scrape: every family plus every collector's samples, in
 *  registration order. */
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

/** The registry (see file comment). Thread-safe: handle operations
 *  are lock-free on the caller's own shard; registration and scrape
 *  serialize on an internal mutex. */
class MetricsRegistry
{
  public:
    MetricsRegistry();
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Create (or re-fetch, on exact name+labels match) handles. */
    Counter counter(const std::string &name,
                    const std::string &help = "",
                    const MetricLabels &labels = {});
    Gauge gauge(const std::string &name,
                const std::string &help = "",
                const MetricLabels &labels = {});
    /** With @p hist given, the family exposes that histogram from
     *  then on (a later run registering its own replaces it). */
    HistogramHandle
    histogram(const std::string &name, const std::string &help = "",
              const MetricLabels &labels = {},
              std::shared_ptr<LatencyHistogram> hist = {});

    /** Register a scrape-time collector (called in registration
     *  order under the scrape lock). */
    void addCollector(std::function<void(MetricsSink &)> fn);

    /** Merge every thread shard + run every collector. */
    MetricsSnapshot scrape() const;

    /** Registered families (not counting collector output). */
    std::size_t familyCount() const;

  private:
    friend class Counter;
    friend class Gauge;
    std::unique_ptr<class MetricsRegistryImpl> impl_;
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

/**
 * Marginal cost of one Counter::inc on an attached handle, in
 * nanoseconds (>= 0; measured as a paired-loop difference like
 * measureGateCostNs). Used by the perf_regress metrics-overhead
 * gate.
 */
double measureCounterCostNs(MetricsRegistry &reg);

/** The same for one HistogramHandle::observe on an attached handle. */
double measureHistogramCostNs(MetricsRegistry &reg);

} // namespace adcache::obs

#endif // ADCACHE_OBS_METRICS_HH
