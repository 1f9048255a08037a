#include "obs/trace.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "obs/ring.hh"
#include "util/logging.hh"

namespace adcache::obs
{

namespace detail
{
std::atomic<bool> traceOn{false};
std::atomic<bool> latencyOn{false};
} // namespace detail

namespace
{

constexpr std::size_t kDefaultRingCapacity = std::size_t(1) << 16;

/**
 * All live rings and spans. Rings are shared_ptr-owned here so a
 * ring outlives its producing thread (pool workers exit before the
 * main thread drains). A global epoch invalidates the thread-local
 * caches: resetTrace() bumps it, and each thread re-attaches a fresh
 * ring / tid on its next use.
 */
struct TraceState
{
    std::mutex mtx;
    std::vector<std::shared_ptr<EventRing>> rings;
    std::vector<Span> spans;
    std::atomic<std::uint64_t> epoch{1};
    std::atomic<std::uint32_t> nextTid{0};
    std::atomic<std::size_t> ringCapacity{kDefaultRingCapacity};
};

TraceState &
state()
{
    static TraceState s;
    return s;
}

struct ThreadRingCache
{
    std::uint64_t epoch = 0;
    EventRing *ring = nullptr;
};

struct ThreadTidCache
{
    std::uint64_t epoch = 0;
    std::uint32_t tid = 0;
};

thread_local ThreadRingCache tl_ring;
thread_local ThreadTidCache tl_tid;

EventRing &
threadRing()
{
    TraceState &s = state();
    const std::uint64_t epoch =
        s.epoch.load(std::memory_order_acquire);
    if (tl_ring.epoch != epoch || tl_ring.ring == nullptr) {
        auto ring = std::make_shared<EventRing>(
            s.ringCapacity.load(std::memory_order_relaxed));
        {
            std::lock_guard<std::mutex> lock(s.mtx);
            s.rings.push_back(ring);
        }
        tl_ring.ring = ring.get();
        tl_ring.epoch = epoch;
    }
    return *tl_ring.ring;
}

} // namespace

void
setTraceEnabled(bool on)
{
    if constexpr (kTraceCompiled)
        detail::traceOn.store(on, std::memory_order_relaxed);
    else
        (void)on;
}

void
setLatencyEnabled(bool on)
{
    if constexpr (kTraceCompiled)
        detail::latencyOn.store(on, std::memory_order_relaxed);
    else
        (void)on;
}

void
emit(const TraceEvent &ev)
{
    threadRing().tryPush(ev);
}

std::vector<TraceEvent>
drainAll()
{
    TraceState &s = state();
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(s.mtx);
        for (auto &ring : s.rings)
            ring->drain(out);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.t < b.t;
                     });
    return out;
}

std::uint64_t
droppedTotal()
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    std::uint64_t total = 0;
    for (auto &ring : s.rings)
        total += ring->dropped();
    return total;
}

std::vector<std::uint64_t>
perRingDrops()
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    std::vector<std::uint64_t> out;
    out.reserve(s.rings.size());
    for (auto &ring : s.rings)
        out.push_back(ring->dropped());
    return out;
}

void
setRingCapacity(std::size_t capacity)
{
    adcache_assert(capacity >= 2);
    state().ringCapacity.store(capacity, std::memory_order_relaxed);
}

void
resetTrace()
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    s.rings.clear();
    s.spans.clear();
    s.nextTid.store(0, std::memory_order_relaxed);
    // Release-publish the new epoch so re-attaching threads observe
    // the cleared registry.
    s.epoch.fetch_add(1, std::memory_order_acq_rel);
}

void
recordSpan(Span span)
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    s.spans.push_back(std::move(span));
}

std::vector<Span>
drainSpans()
{
    TraceState &s = state();
    std::vector<Span> out;
    {
        std::lock_guard<std::mutex> lock(s.mtx);
        out.swap(s.spans);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Span &a, const Span &b) {
                         return a.t0Ns < b.t0Ns;
                     });
    return out;
}

std::uint32_t
currentTid()
{
    TraceState &s = state();
    const std::uint64_t epoch =
        s.epoch.load(std::memory_order_acquire);
    if (tl_tid.epoch != epoch) {
        tl_tid.tid =
            s.nextTid.fetch_add(1, std::memory_order_relaxed);
        tl_tid.epoch = epoch;
    }
    return tl_tid.tid;
}

std::uint64_t
nowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

__attribute__((noinline)) void
costSink(std::uint64_t v)
{
    asm volatile("" : : "r"(v) : "memory");
}

double
measureGateCostNs()
{
    // The gate guards an opaque call, so it compiles to a load and a
    // predicted-not-taken branch, exactly like the emit() calls the
    // production gates guard.
    return marginalCostNs([](int i) {
        if (traceEnabled())
            costSink(std::uint64_t(i));
    });
}

} // namespace adcache::obs
