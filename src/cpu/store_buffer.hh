/**
 * @file
 * The finite store buffer (Table 1: 4 entries). Retired stores park
 * here while their write drains through the cache hierarchy; when
 * every entry is occupied, retirement stalls — the effect Sec. 4.5.2
 * (Fig. 10) isolates. The original MASE effectively assumed an
 * unbounded buffer, which the authors fixed; this model is finite by
 * construction.
 */

#ifndef ADCACHE_CPU_STORE_BUFFER_HH
#define ADCACHE_CPU_STORE_BUFFER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hh"

namespace adcache
{

class StatRegistry;

/** Store buffer occupancy statistics. */
struct StoreBufferStats
{
    std::uint64_t stores = 0;
    std::uint64_t fullStalls = 0;  //!< stores that found it full
    Cycle stallCycles = 0;         //!< retirement cycles lost

    /** Register every counter under "<prefix><name>". */
    void registerInto(StatRegistry &reg,
                      const std::string &prefix) const;
};

/**
 * A set of entries each busy until its drain completes. The buffer is
 * modelled by completion times: a new store needs one entry whose
 * drain time is <= the store's retire time, or retirement waits.
 */
class StoreBuffer
{
  public:
    explicit StoreBuffer(unsigned entries);

    /**
     * Earliest cycle (>= @p retire_ready) at which a new store can
     * claim an entry.
     */
    Cycle
    earliestSlot(Cycle retire_ready) const
    {
        const Cycle first_free = drainDone_[first_];
        return retire_ready > first_free ? retire_ready : first_free;
    }

    /**
     * Commit a store: claims the entry that frees first.
     * @param retire     cycle the store retires (entry claimed).
     * @param drain_done cycle its cache write completes (entry free).
     */
    void push(Cycle retire, Cycle drain_done);

    unsigned capacity() const { return unsigned(drainDone_.size()); }

    StoreBufferStats &stats() { return stats_; }
    const StoreBufferStats &stats() const { return stats_; }

  private:
    std::vector<Cycle> drainDone_;
    /** The entry that frees first (the lowest-numbered on a tie). */
    std::size_t first_ = 0;
    StoreBufferStats stats_;
};

} // namespace adcache

#endif // ADCACHE_CPU_STORE_BUFFER_HH
