/**
 * @file
 * The one latency histogram: the kv facade's per-op timings,
 * KvService's request latency and the YCSB driver all record into it.
 *
 * Buckets are upper-inclusive: 0..8 ns exact, then each octave
 * (2^t, 2^(t+1)] split into 8 equal sub-buckets up to
 * 2^kLatencyTopBit ns (~69 s), then one overflow bucket. Every power
 * of two is an edge, and an edge overestimates its samples by at most
 * 12.5%.
 *
 * LatencyHistogram records into per-thread cells with relaxed loads
 * and stores (no lock-prefixed RMW); snapshot() merges them while
 * writers run into a LatencySnapshot, the plain value with exact
 * count/sum/min/max, one merge and one nearest-rank percentile.
 * ThreadCounters keeps plain event counts in cells indexed by the
 * same thread slots.
 */

#ifndef ADCACHE_OBS_LATENCY_HH
#define ADCACHE_OBS_LATENCY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>

namespace adcache
{
class StatRegistry;
}

namespace adcache::obs
{

/** Sub-buckets per octave, and the largest exactly-bucketed value. */
inline constexpr unsigned kLatencySubBuckets = 8;
/** The top finite bucket edge is 2^kLatencyTopBit ns. */
inline constexpr unsigned kLatencyTopBit = 36;
/** 0..8 exact, 8 per octave from (8, 16] to the top edge, overflow. */
inline constexpr unsigned kLatencyBuckets =
    kLatencySubBuckets + 1 + kLatencySubBuckets * (kLatencyTopBit - 3) + 1;

/** Bucket of a sample: the one whose upper edge is the smallest edge
 *  at or above @p ns. */
unsigned latencyBucket(std::uint64_t ns);

/** Upper (inclusive) edge of bucket @p b; the overflow bucket's is
 *  UINT64_MAX. */
std::uint64_t latencyBucketEdge(unsigned b);

/** A latency distribution as plain values (see file comment). */
class LatencySnapshot
{
  public:
    std::uint64_t count() const { return count_; }
    std::uint64_t sumNs() const { return sum_; }
    /** Smallest / largest sample; assert count() > 0. */
    std::uint64_t minNs() const;
    std::uint64_t maxNs() const;
    double meanNs() const;

    /** Samples in bucket @p b. */
    std::uint64_t bucket(unsigned b) const { return buckets_[b]; }

    void merge(const LatencySnapshot &other);

    /**
     * Nearest rank: the upper edge of the bucket holding the
     * ceil(p * count())-th smallest sample, capped at the exact
     * maximum (so p = 1 is the maximum); p in (0, 1]. 0 when empty.
     */
    double percentileNs(double p) const;

    /**
     * Register count/mean/p50/p95/p99/p999/max under "<prefix>"
     * into @p reg (no-op when count() == 0).
     */
    void registerInto(StatRegistry &reg,
                      const std::string &prefix) const;

  private:
    friend class LatencyHistogram;
    std::array<std::uint64_t, kLatencyBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

/** Most threads alive at once that record into per-thread cells
 *  (latency histograms and ThreadCounters). */
inline constexpr unsigned kMaxRecordingThreads = 1024;

/**
 * The calling thread's recording slot, below kMaxRecordingThreads.
 * A thread takes the lowest free slot at its first call and hands it
 * back when it exits; the next thread to take it carries on in the
 * cells it filled.
 */
unsigned threadSlot();

/**
 * @p N event counters kept in per-thread cells indexed by
 * threadSlot(): add() is a relaxed load and store on the caller's own
 * cell (no lock-prefixed RMW, no line another writer touches), and
 * sum() merges the cells while writers run.
 */
template <unsigned N>
class ThreadCounters
{
  public:
    ThreadCounters() = default;

    ~ThreadCounters()
    {
        for (auto &c : cells_)
            delete c.load(std::memory_order_relaxed);
    }

    ThreadCounters(const ThreadCounters &) = delete;
    ThreadCounters &operator=(const ThreadCounters &) = delete;

    void
    add(unsigned i, std::uint64_t n = 1)
    {
        // Only the slot's holder publishes into cells_[slot].
        const unsigned slot = threadSlot();
        Cell *cell = cells_[slot].load(std::memory_order_relaxed);
        if (cell == nullptr) [[unlikely]] {
            cell = new Cell();
            cells_[slot].store(cell, std::memory_order_release);
        }
        std::atomic<std::uint64_t> &v = cell->v[i];
        v.store(v.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
    }

    std::uint64_t
    sum(unsigned i) const
    {
        std::uint64_t total = 0;
        for (const auto &c : cells_)
            if (const Cell *cell = c.load(std::memory_order_acquire))
                total += cell->v[i].load(std::memory_order_relaxed);
        return total;
    }

  private:
    struct alignas(64) Cell
    {
        std::atomic<std::uint64_t> v[N] = {};
    };

    std::atomic<Cell *> cells_[kMaxRecordingThreads] = {};
};

/** A live latency histogram shared by any number of recording threads
 *  (see file comment). */
class LatencyHistogram
{
  public:
    LatencyHistogram() = default;
    ~LatencyHistogram() { reset(); }

    LatencyHistogram(const LatencyHistogram &) = delete;
    LatencyHistogram &operator=(const LatencyHistogram &) = delete;

    /** Count one sample into the calling thread's cell. */
    void record(std::uint64_t ns);

    /**
     * Merge every thread's cell. Safe while other threads record: the
     * count is the sum of the bucket counts read, and sum, min and
     * max cover at least every sample counted.
     */
    LatencySnapshot snapshot() const;

    /** Forget every sample. Only while no other thread records or
     *  takes a snapshot. */
    void reset();

  private:
    struct Cell;

    /** Indexed by the recording thread's slot. */
    std::atomic<Cell *> cells_[kMaxRecordingThreads] = {};
};

/** The kv facade operations with latency instrumentation. */
enum class KvOp : unsigned
{
    Get = 0,
    Fetch = 1,
    Put = 2,
    /** A get that could not complete lock-free (optimistic-retry
     *  exhaustion or no free epoch slot) and took the shard
     *  mutex — split out so hit-path and slow-path latency
     *  distributions stay distinguishable. */
    GetSlow = 3,
    /** One getMany() batch (the whole batch is one sample, whatever
     *  its size — batched callers care about per-batch latency). */
    GetMany = 4,
};

inline constexpr unsigned kNumKvOps = 5;

/** Canonical lower-case name of @p op. */
const char *kvOpName(KvOp op);

/**
 * Record one operation latency into @p op's process-wide histogram.
 * Call only inside an `if (latencyEnabled())` block: timing two
 * clock reads per op is a cost ADCACHE_LAT lets a bench decline.
 */
void recordLatency(KvOp op, std::uint64_t ns);

/** Snapshot of @p op's histogram; safe while threads record. */
LatencySnapshot latencySnapshot(KvOp op);

/** Forget all recorded kv latencies. Only while no thread records. */
void resetLatency();

} // namespace adcache::obs

#endif // ADCACHE_OBS_LATENCY_HH
