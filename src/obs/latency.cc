#include "obs/latency.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>
#include <vector>

#include "util/logging.hh"
#include "util/stat_registry.hh"

namespace adcache::obs
{

unsigned
latencyBucket(std::uint64_t ns)
{
    if (ns <= kLatencySubBuckets)
        return unsigned(ns);
    // (2^t, 2^(t+1)] is [2^t, 2^(t+1)) shifted by one; its sub-bucket
    // is the 3 bits below the top bit of ns - 1.
    const std::uint64_t v = ns - 1;
    const unsigned t = unsigned(std::bit_width(v)) - 1;
    if (t >= kLatencyTopBit)
        return kLatencyBuckets - 1;
    return kLatencySubBuckets + 1 + (t - 3) * kLatencySubBuckets +
           (unsigned(v >> (t - 3)) & (kLatencySubBuckets - 1));
}

std::uint64_t
latencyBucketEdge(unsigned b)
{
    if (b <= kLatencySubBuckets)
        return b;
    if (b >= kLatencyBuckets - 1)
        return std::numeric_limits<std::uint64_t>::max();
    const unsigned k = b - kLatencySubBuckets - 1;
    const unsigned shift = k / kLatencySubBuckets;
    const unsigned sub = k % kLatencySubBuckets;
    return std::uint64_t(kLatencySubBuckets + sub + 1) << shift;
}

std::uint64_t
LatencySnapshot::minNs() const
{
    adcache_assert(count_ > 0);
    return min_;
}

std::uint64_t
LatencySnapshot::maxNs() const
{
    adcache_assert(count_ > 0);
    return max_;
}

double
LatencySnapshot::meanNs() const
{
    return count_ == 0 ? 0.0 : double(sum_) / double(count_);
}

void
LatencySnapshot::merge(const LatencySnapshot &other)
{
    for (unsigned b = 0; b < kLatencyBuckets; ++b)
        buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
LatencySnapshot::percentileNs(double p) const
{
    adcache_assert(p > 0.0 && p <= 1.0);
    if (count_ == 0)
        return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, std::uint64_t(std::ceil(p * double(count_))));
    std::uint64_t cum = 0;
    unsigned b = 0;
    while ((cum += buckets_[b]) < rank)
        ++b;
    return double(std::min(latencyBucketEdge(b), max_));
}

void
LatencySnapshot::registerInto(StatRegistry &reg,
                              const std::string &prefix) const
{
    if (count_ == 0)
        return;
    reg.counter(prefix + "count", count_);
    reg.value(prefix + "mean_ns", meanNs());
    reg.value(prefix + "p50_ns", percentileNs(0.50));
    reg.value(prefix + "p95_ns", percentileNs(0.95));
    reg.value(prefix + "p99_ns", percentileNs(0.99));
    reg.value(prefix + "p999_ns", percentileNs(0.999));
    reg.counter(prefix + "max_ns", max_);
}

/**
 * One thread's share of a histogram. Only the thread holding the
 * cell's slot writes it; snapshots read it concurrently.
 */
struct LatencyHistogram::Cell
{
    std::atomic<std::uint64_t> buckets[kLatencyBuckets] = {};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{
        std::numeric_limits<std::uint64_t>::max()};
    std::atomic<std::uint64_t> max{0};

    void
    add(std::uint64_t ns)
    {
        // Single writer: load + store, no lock-prefixed RMW. The
        // bucket store comes last and releases the sum and extrema,
        // so a snapshot that counts this sample sees them too.
        sum.store(sum.load(std::memory_order_relaxed) + ns,
                  std::memory_order_relaxed);
        if (ns < min.load(std::memory_order_relaxed))
            min.store(ns, std::memory_order_relaxed);
        if (ns > max.load(std::memory_order_relaxed))
            max.store(ns, std::memory_order_relaxed);
        std::atomic<std::uint64_t> &b = buckets[latencyBucket(ns)];
        b.store(b.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
    }

    LatencySnapshot
    load() const
    {
        LatencySnapshot s;
        for (unsigned b = 0; b < kLatencyBuckets; ++b) {
            s.buckets_[b] = buckets[b].load(std::memory_order_acquire);
            s.count_ += s.buckets_[b];
        }
        s.sum_ = sum.load(std::memory_order_relaxed);
        s.min_ = min.load(std::memory_order_relaxed);
        s.max_ = max.load(std::memory_order_relaxed);
        return s;
    }
};

namespace
{

/** Free recording slots; never destroyed, because threads may exit
 *  after static destruction. Its mutex orders a slot's holders. */
struct SlotPool
{
    std::mutex mtx;
    std::vector<unsigned> free;
    unsigned next = 0;
};

SlotPool &
slotPool()
{
    static SlotPool *pool = new SlotPool;
    return *pool;
}

constexpr unsigned kNoSlot = ~0u;
thread_local unsigned tl_slot = kNoSlot;

/** Holds the thread's slot until the thread exits. */
struct SlotLease
{
    SlotLease()
    {
        SlotPool &p = slotPool();
        std::lock_guard<std::mutex> lock(p.mtx);
        if (p.free.empty()) {
            adcache_assert(p.next < kMaxRecordingThreads,
                           "too many live threads record");
            tl_slot = p.next++;
        } else {
            tl_slot = p.free.back();
            p.free.pop_back();
        }
    }

    SlotLease(const SlotLease &) = delete;
    SlotLease &operator=(const SlotLease &) = delete;

    ~SlotLease()
    {
        SlotPool &p = slotPool();
        std::lock_guard<std::mutex> lock(p.mtx);
        p.free.push_back(tl_slot);
    }
};

} // namespace

unsigned
threadSlot()
{
    if (tl_slot == kNoSlot) [[unlikely]] {
        thread_local SlotLease lease;
        (void)lease;
    }
    return tl_slot;
}

void
LatencyHistogram::record(std::uint64_t ns)
{
    // Only the slot's holder publishes into cells_[slot].
    const unsigned slot = threadSlot();
    Cell *cell = cells_[slot].load(std::memory_order_relaxed);
    if (cell == nullptr) [[unlikely]] {
        cell = new Cell();
        cells_[slot].store(cell, std::memory_order_release);
    }
    cell->add(ns);
}

LatencySnapshot
LatencyHistogram::snapshot() const
{
    LatencySnapshot out;
    for (const auto &c : cells_)
        if (const Cell *cell = c.load(std::memory_order_acquire))
            out.merge(cell->load());
    return out;
}

void
LatencyHistogram::reset()
{
    for (auto &c : cells_)
        delete c.exchange(nullptr, std::memory_order_relaxed);
}

const char *
kvOpName(KvOp op)
{
    switch (op) {
      case KvOp::Get:
        return "get";
      case KvOp::Fetch:
        return "fetch";
      case KvOp::Put:
        return "put";
      case KvOp::GetSlow:
        return "get_slow";
      case KvOp::GetMany:
        return "get_many";
    }
    return "?";
}

namespace
{

std::array<LatencyHistogram, kNumKvOps> &
kvLatency()
{
    static std::array<LatencyHistogram, kNumKvOps> hists;
    return hists;
}

} // namespace

void
recordLatency(KvOp op, std::uint64_t ns)
{
    kvLatency()[unsigned(op)].record(ns);
}

LatencySnapshot
latencySnapshot(KvOp op)
{
    return kvLatency()[unsigned(op)].snapshot();
}

void
resetLatency()
{
    for (LatencyHistogram &h : kvLatency())
        h.reset();
}

} // namespace adcache::obs
