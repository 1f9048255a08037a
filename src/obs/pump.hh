/**
 * @file
 * TelemetryPump: the background thread that turns the passive
 * telemetry pieces into a live loop. Once a second (configurable) it
 *
 *  1. fires the caller's SnapshotSeries sampler, so a serving
 *     process accumulates the same per-interval rows the bench
 *     drivers produce offline,
 *  2. pulls cumulative per-shard adaptation counters (winner flips,
 *     differentiating misses, references) through the caller's
 *     driftSampler, converts them to per-period deltas, and feeds
 *     the DriftMonitor — each threshold crossing emits a `kv_drift`
 *     trace event and one structured log line, and
 *  3. keeps each shard's rolling drift EWMAs and the crossing count,
 *     which registerMetrics() exposes as the ADCACHE_DRIFT_COUNTERS
 *     rows, so /metrics shows adaptation health, not just raw
 *     counters.
 *
 * Everything the pump does is scrape-rate work: nothing here touches
 * a request hot path. Tests drive it deterministically with
 * tickOnce() instead of starting the thread.
 */

#ifndef ADCACHE_OBS_PUMP_HH
#define ADCACHE_OBS_PUMP_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/counter_table.hh"
#include "obs/drift.hh"
#include "obs/snapshot.hh"

namespace adcache::obs
{

/** One shard's cumulative adaptation counters, as sampled. */
struct DriftShardSample
{
    std::uint64_t flips = 0;      //!< selection flips, cumulative
    std::uint64_t diffMisses = 0; //!< differentiating misses, cum.
    std::uint64_t ops = 0;        //!< references, cumulative
};

struct TelemetryPumpConfig
{
    /** Sampling period of the background thread. */
    std::chrono::milliseconds period{1000};
    /** Snapshot cadence in periods: the SnapshotSeries sampler
     *  fires every this-many periods (1 = every period). */
    std::uint64_t snapshotEvery = 1;
    DriftConfig drift;
    /** Snapshot sampler (see SnapshotSeries); optional. */
    SnapshotSeries::Sampler sampler;
    /** Returns every shard's cumulative counters; optional. */
    std::function<std::vector<DriftShardSample>()> driftSampler;
    /** Receives one structured line per drift crossing; defaults to
     *  stderr. */
    std::function<void(const std::string &)> logSink;
};

class TelemetryPump
{
  public:
    explicit TelemetryPump(TelemetryPumpConfig config);
    ~TelemetryPump();

    TelemetryPump(const TelemetryPump &) = delete;
    TelemetryPump &operator=(const TelemetryPump &) = delete;

    /** Spawn the background thread (idempotent). */
    void start();

    /** Stop and join it (idempotent; also run by the destructor). */
    void stop();

    /**
     * Run one sampling period synchronously — what the thread does
     * once per period. Deterministic test entry point; safe to call
     * when the thread is not running.
     */
    void tickOnce();

    /** Periods sampled so far. */
    std::uint64_t periods() const;

    /** kv_drift crossings observed so far (both signals). */
    std::uint64_t driftEvents() const;

    /** Scrape-time drift metrics (adcache_kv_drift_*) in @p reg; the
     *  pump must outlive the registry's scrapes. */
    void registerMetrics(MetricsRegistry &reg);

    /** The accumulated snapshot rows (empty without a sampler). */
    const SnapshotSeries *series() const { return series_.get(); }

  private:
    /** The source of the ADCACHE_DRIFT_COUNTERS rows: one per shard
     *  (EWMAs), and the total (crossings). */
    struct DriftState
    {
        double flipEwma = 0.0;
        double diffMissEwma = 0.0;
        std::uint64_t events = 0;
    };

    static CounterTable<DriftState> driftCounterTable();

    void run();

    TelemetryPumpConfig config_;
    DriftMonitor monitor_;
    std::unique_ptr<SnapshotSeries> series_;
    std::vector<DriftShardSample> prev_;

    mutable std::mutex mtx_; //!< guards tick state, the drift state + cv
    std::condition_variable cv_;
    std::thread thread_;
    bool running_ = false;
    bool stopRequested_ = false;
    std::uint64_t periods_ = 0;
    std::uint64_t driftEvents_ = 0;
    /** Each sampled shard's latest EWMAs (index = shard). */
    std::vector<DriftState> shardDrift_;
};

} // namespace adcache::obs

#endif // ADCACHE_OBS_PUMP_HH
