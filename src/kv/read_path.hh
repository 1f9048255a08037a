/**
 * @file
 * Primitives of the kv cache's lock-free read path
 * (docs/KVCACHE.md "Concurrency model"):
 *
 *  - EpochDomain / EpochGuard: a process-wide three-epoch
 *    reclamation domain. A reader pins its per-thread slot to the
 *    global epoch for the duration of one optimistic probe; writers
 *    retire unlinked entries (and replaced value strings) tagged
 *    with the epoch current at unlink time and free a batch only
 *    once the global epoch has advanced twice past it — by then no
 *    pinned reader can still hold a path to the retired node.
 *    The epoch advances only when every pinned slot has caught up
 *    with the current epoch (gated advance), so a single load of
 *    the global epoch bounds what any active reader may reference.
 *
 *  - Access marks (KvEntry::accessMark): a lock-free hit records
 *    itself by storing 1 into the entry's one-byte mark when it
 *    reads 0 — a relaxed load and a relaxed store, no
 *    read-modify-write. The shard folds marks into its LRU/LFU
 *    orders under the mutex (KvShard::promote and the case-2
 *    eviction walk), CLOCK style.
 *
 * Memory-order discipline: every atomic the probe path and the
 * reclamation protocol share uses seq_cst. The access mark is the
 * one exception: it orders nothing (a lost or late mark only shifts
 * a replacement decision), so both sides touch it relaxed. The loads are free on
 * x86/ARM-acquire hardware and the stores sit on rare writer paths;
 * in exchange the correctness argument is a single total order (the
 * unlink store precedes the epoch load that tags the retirement,
 * which precedes the epoch CAS any later-pinned reader observed —
 * so that reader's probe reads the post-unlink slot and chain
 * pointers), and
 * ThreadSanitizer models it without standalone fences.
 */

#ifndef ADCACHE_KV_READ_PATH_HH
#define ADCACHE_KV_READ_PATH_HH

#include <atomic>
#include <cstdint>

namespace adcache::kv
{

/** Process-wide epoch-based reclamation domain (see file comment). */
class EpochDomain
{
  public:
    /** Per-thread reader slots; threads past the supply fall back to
     *  the mutex read path (EpochGuard::engaged() == false). */
    static constexpr unsigned kMaxSlots = 64;

    static EpochDomain &instance();

    /**
     * The calling thread's slot index, or -1 when the slot supply is
     * exhausted. Allocated on first use, returned at thread exit.
     */
    static int threadSlot();

    /** Pin @p slot to the current epoch. @return that epoch. */
    std::uint64_t
    pin(int slot)
    {
        auto &e = slots_[slot].epoch;
        std::uint64_t cur = epoch_.load(std::memory_order_relaxed);
        for (;;) {
            // Publish the claim, then confirm the epoch did not move
            // past it (the store and the re-load are both seq_cst, so
            // a concurrent gated advance either sees this slot or is
            // seen by the re-load).
            e.store(cur, std::memory_order_seq_cst);
            const std::uint64_t now =
                epoch_.load(std::memory_order_seq_cst);
            if (now == cur)
                return cur;
            cur = now;
        }
    }

    void
    unpin(int slot)
    {
        slots_[slot].epoch.store(0, std::memory_order_seq_cst);
    }

    std::uint64_t
    current() const
    {
        return epoch_.load(std::memory_order_seq_cst);
    }

    /**
     * Advance the global epoch iff every pinned slot is at it.
     * @return true iff the epoch moved.
     */
    bool tryAdvance();

  private:
    EpochDomain() = default;

    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> epoch{0}; //!< 0 = not pinned
    };

    /** Epochs start at 2 so slot value 0 can mean "unpinned". */
    std::atomic<std::uint64_t> epoch_{2};
    Slot slots_[kMaxSlots];

    friend class EpochGuard;
};

/** RAII reader pin. Probe lock-free only while engaged(). */
class EpochGuard
{
  public:
    EpochGuard() : slot_(EpochDomain::threadSlot())
    {
        if (slot_ >= 0)
            epoch_ = EpochDomain::instance().pin(slot_);
    }

    ~EpochGuard()
    {
        if (slot_ >= 0)
            EpochDomain::instance().unpin(slot_);
    }

    EpochGuard(const EpochGuard &) = delete;
    EpochGuard &operator=(const EpochGuard &) = delete;

    /** False when the thread-slot supply ran out: use the mutex. */
    bool engaged() const { return slot_ >= 0; }

    std::uint64_t epoch() const { return epoch_; }

  private:
    int slot_;
    std::uint64_t epoch_ = 0;
};

} // namespace adcache::kv

#endif // ADCACHE_KV_READ_PATH_HH
