/**
 * @file
 * Measurement machinery shared by every perfbench workload: clocks,
 * process CPU time, host steal, peak RSS, a fine-bucket latency
 * histogram, and the straggler-free multi-thread timed phase.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Monotonic wall clock in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Wall seconds since @p t0 (a nowNs() stamp). */
inline double
secondsSince(std::uint64_t t0)
{
    return double(nowNs() - t0) * 1e-9;
}

/** Process user+system CPU seconds, all threads. */
double processCpuSeconds();

/** Peak resident set (VmHWM) in bytes; 0 if unreadable. */
std::uint64_t peakRssBytes();

/** Mean cost of one nowNs() call, in nanoseconds. */
double clockCostNs();

/** Sample mask that times only call 0, which runs in the ramp. */
inline constexpr std::uint64_t kNoSamples = ~std::uint64_t(0);

/** Median of @p v (v non-empty; reordered). */
double median(std::vector<double> v);

/**
 * Latency histogram with exact 1 ns buckets below 128 ns and 128
 * log-linear sub-buckets per octave above (relative width < 0.8 %).
 * Percentiles interpolate by rank inside their bucket.
 */
class LatencyHistogram
{
  public:
    void add(std::uint64_t ns);
    void merge(const LatencyHistogram &other);
    std::uint64_t count() const { return count_; }
    /** The @p q quantile (0..1) in nanoseconds; 0 when empty. */
    double quantileNs(double q) const;

  private:
    static constexpr unsigned kSubBits = 7;
    static constexpr unsigned kSub = 1u << kSubBits;
    static constexpr unsigned kOctaves = 40;
    static constexpr unsigned kBuckets = kSub + kOctaves * kSub;

    static unsigned bucketOf(std::uint64_t ns);
    static double bucketLow(unsigned b);
    static double bucketWidth(unsigned b);

    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t count_ = 0;
};

/** What one timed phase measured. */
struct PhaseStats
{
    std::uint64_t ops = 0; //!< ops completed inside the window
    double wallS = 0.0;
    double cpuS = 0.0;       //!< process CPU seconds in the window
    double stealShare = 0.0; //!< host steal / host CPU time
};

/** What one call into a workload did. */
struct Done
{
    std::uint64_t ops = 1; //!< ops the call completed
    bool ok = true;        //!< its output check passed
};

/** One worker's share of a multi-thread timed phase. */
struct alignas(64) WorkerTally
{
    std::uint64_t calls = 0;   //!< every call made, window or not
    std::uint64_t failed = 0;  //!< calls whose output check failed
    std::uint64_t counted = 0; //!< ops completed inside the window
    /** The counted calls, which are consecutive: [begin, end). */
    std::uint64_t begin = 0, end = 0;
    LatencyHistogram latency; //!< sampled calls inside the window
};

/**
 * Phase control word the workers poll before and after every call.
 * Workers start together off a barrier, a ramp lets them all get
 * going, and the main thread then opens and closes the measured
 * window. A worker counts a call's ops only if the gate read Measure
 * both before and after the call, so every counted op ran inside the
 * window, while every worker was running.
 */
enum class Gate : int
{
    Wait,
    Ramp,
    Measure,
    Stop,
};

/**
 * One worker's loop. @p call(i) makes call @p i of the worker's
 * program. Every (@p sample_mask + 1)-th call inside the window is
 * timed.
 */
template <class Call>
void
workerLoop(const std::atomic<int> &gate, std::uint64_t sample_mask,
           Call &&call, WorkerTally &tally)
{
    std::uint64_t failed = 0, counted = 0, i = 0;
    std::uint64_t begin = ~std::uint64_t(0), end = 0;
    int g = gate.load(std::memory_order_relaxed);
    for (; g != int(Gate::Stop); ++i) {
        const bool in = g == int(Gate::Measure);
        const bool timed = in && (i & sample_mask) == 0;
        const std::uint64_t t0 = timed ? nowNs() : 0;
        const Done d = call(i);
        const std::uint64_t t1 = timed ? nowNs() : 0;
        g = gate.load(std::memory_order_relaxed);
        failed += d.ok ? 0 : 1;
        if (in && g == int(Gate::Measure)) {
            counted += d.ops;
            begin = std::min(begin, i);
            end = i + 1;
            if (timed)
                tally.latency.add(t1 - t0);
        }
    }
    tally.calls = i;
    tally.failed = failed;
    tally.counted = counted;
    tally.begin = std::min(begin, end);
    tally.end = end;
}

/**
 * Run @p workers threads over one timed window of @p seconds.
 * @p body(t, gate, tally) is worker t's loop (normally workerLoop).
 * The tallies are returned through @p tallies.
 */
PhaseStats runWorkers(
    unsigned workers, double seconds,
    const std::function<void(unsigned, const std::atomic<int> &,
                             WorkerTally &)> &body,
    std::vector<WorkerTally> &tallies);

/** Output-check tally feeding the result's attempted/failed. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }

    void
    add(const Checks &other)
    {
        attempted += other.attempted;
        failed += other.failed;
    }
};

/** What one timed phase reports. */
struct RunResult
{
    PhaseStats phase;
    LatencyHistogram latency; //!< per sampled call, nanoseconds
    double hitRatio = 0.0;
    Checks checks; //!< one check per call
    /** Per worker, its counted calls [first, second). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> countedCalls;
};

/**
 * A timed window of @p seconds over @p workers threads, each running
 * workerLoop over @p call(t, i) (call i of worker t's program).
 */
template <class Call>
RunResult
timedPhase(unsigned workers, double seconds, std::uint64_t sample_mask,
           Call &&call)
{
    std::vector<WorkerTally> tallies;
    RunResult res;
    res.phase = runWorkers(
        workers, seconds,
        [&](unsigned t, const std::atomic<int> &gate, WorkerTally &tally) {
            workerLoop(gate, sample_mask,
                       [&call, t](std::uint64_t i) { return call(t, i); },
                       tally);
        },
        tallies);
    for (const WorkerTally &t : tallies) {
        res.latency.merge(t.latency);
        res.checks.attempted += t.calls;
        res.checks.failed += t.failed;
        res.countedCalls.emplace_back(t.begin, t.end);
    }
    return res;
}

/** Ordered name -> (value, unit) map of reported metrics. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
