/**
 * @file
 * The tracing facade: compile-time and runtime gates, per-thread
 * event rings, and wall-clock spans for job timelines.
 *
 * Gating contract (this is what makes tracing zero-cost-when-off):
 *
 *  - `ADCACHE_TRACE` (CMake option, default ON) controls whether any
 *    tracing code is *compiled*. When OFF, `traceEnabled()` is
 *    `if constexpr (false)` — call sites type-check but dead-strip.
 *  - At runtime tracing starts disabled; `setTraceEnabled(true)` (or
 *    an obs::Session reading `ADCACHE_TRACE=1`) turns it on.
 *  - Instrumented components place the `traceEnabled()` check *off
 *    the hit path*: only real misses, differentiating misses, and
 *    eviction paths test the gate, so the disabled cost is a few
 *    relaxed loads per miss, not per access (measured by
 *    `perf_regress --trace-overhead`).
 */

#ifndef ADCACHE_OBS_TRACE_HH
#define ADCACHE_OBS_TRACE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.hh"

namespace adcache::obs
{

#if defined(ADCACHE_TRACE_COMPILED)
inline constexpr bool kTraceCompiled = true;
#else
inline constexpr bool kTraceCompiled = false;
#endif

namespace detail
{
extern std::atomic<bool> traceOn;
extern std::atomic<bool> latencyOn;
} // namespace detail

/** Is decision-event tracing live right now? Branchless-cheap; the
 *  whole call folds to `false` when tracing is compiled out. */
inline bool
traceEnabled()
{
    if constexpr (!kTraceCompiled)
        return false;
    else
        return detail::traceOn.load(std::memory_order_relaxed);
}

/** Is kv latency sampling live right now? Gated identically to
 *  traceEnabled() but switched independently (ADCACHE_LAT). */
inline bool
latencyEnabled()
{
    if constexpr (!kTraceCompiled)
        return false;
    else
        return detail::latencyOn.load(std::memory_order_relaxed);
}

/** Flip the runtime trace gate. No-op when compiled out. */
void setTraceEnabled(bool on);

/** Flip the runtime latency gate. No-op when compiled out. */
void setLatencyEnabled(bool on);

/**
 * Record one event into the calling thread's ring. Call only inside
 * an `if (traceEnabled())` block; when tracing is compiled out this
 * is never reached (and compiles to nothing useful anyway).
 */
void emit(const TraceEvent &ev);

/**
 * Collect every buffered event from every thread's ring, stably
 * sorted by logical time (ties keep per-ring order). Consumes the
 * buffered events.
 */
std::vector<TraceEvent> drainAll();

/** Sum of per-ring drop counters since the last resetTrace(). */
std::uint64_t droppedTotal();

/** Per-ring drop counters (index = ring creation order since the
 *  last resetTrace()). Feeds the metrics registry so silent trace
 *  loss is scrapeable live, not just a JSONL header footnote. */
std::vector<std::uint64_t> perRingDrops();

/** Capacity used for rings created after this call (min 2, rounded
 *  up to a power of two). Existing rings keep their size. */
void setRingCapacity(std::size_t capacity);

/**
 * Forget all rings, spans, drop counts, and thread ids. Invalidates
 * every thread's cached ring pointer (they re-attach on next emit).
 * Intended for tests and between benchmark rounds.
 */
void resetTrace();

/** A wall-clock interval, e.g. one experiment-runner job. */
struct Span
{
    std::string name;
    std::uint32_t tid = 0;
    std::uint64_t t0Ns = 0;
    std::uint64_t t1Ns = 0;
};

/** Append one finished span to the global span log (mutex-guarded;
 *  spans are rare — one per job, not per access). */
void recordSpan(Span span);

/** Move out all recorded spans, ordered by start time. */
std::vector<Span> drainSpans();

/** Small dense id of the calling thread (0, 1, 2, ... in first-use
 *  order since the last resetTrace()). */
std::uint32_t currentTid();

/** Monotonic wall clock, nanoseconds. */
std::uint64_t nowNs();

/**
 * RAII span: records [construction, destruction) under @p name when
 * tracing was enabled at construction; free otherwise.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string name)
    {
        if (traceEnabled()) {
            name_ = std::move(name);
            t0_ = nowNs();
            live_ = true;
        }
    }

    ~ScopedSpan()
    {
        if (live_)
            recordSpan({std::move(name_), currentTid(), t0_, nowNs()});
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    std::string name_;
    std::uint64_t t0_ = 0;
    bool live_ = false;
};

/** An opaque call: the compiler can neither drop nor fold it. */
void costSink(std::uint64_t v);

/**
 * Marginal cost of one @p op(i), in nanoseconds (>= 0; clamped): the
 * best of 7 timings of two otherwise identical loops, the second also
 * calling @p op. Both carry a serial dependency chain so neither
 * vectorizes. The perf_regress overhead gates' unit of measure.
 */
template <class Op>
double
marginalCostNs(Op op)
{
    constexpr int kIters = 1 << 20;
    constexpr int kReps = 7;
    auto timeLoop = [](auto body) {
        double best = 1e18;
        for (int rep = 0; rep < kReps; ++rep) {
            const std::uint64_t t0 = nowNs();
            std::uint64_t acc = 1;
            for (int i = 0; i < kIters; ++i)
                acc = body(acc, i);
            costSink(acc);
            best = std::min(best, double(nowNs() - t0));
        }
        return best / kIters;
    };
    const double plain =
        timeLoop([](std::uint64_t acc, int i) -> std::uint64_t {
            return acc * 2654435761u + unsigned(i);
        });
    const double with_op =
        timeLoop([&](std::uint64_t acc, int i) -> std::uint64_t {
            op(i);
            return acc * 2654435761u + unsigned(i);
        });
    return std::max(0.0, with_op - plain);
}

/** The marginal cost of one disabled `traceEnabled()` check. */
double measureGateCostNs();

} // namespace adcache::obs

#endif // ADCACHE_OBS_TRACE_HH
