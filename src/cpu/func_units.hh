/**
 * @file
 * Functional-unit pools matching Table 1: 4 integer ALUs (1 cycle),
 * 4 integer mult/div (8 cycles), 4 FP ALUs (4 cycles), 4 FP mult/div
 * (16 cycles) and 2 memory ports. Each pool schedules the earliest
 * available unit at or after an instruction's ready time.
 */

#ifndef ADCACHE_CPU_FUNC_UNITS_HH
#define ADCACHE_CPU_FUNC_UNITS_HH

#include <array>
#include <vector>

#include "trace/instr.hh"
#include "util/types.hh"

namespace adcache
{

/** Per-class unit counts and execution latencies. */
struct FuncUnitConfig
{
    unsigned intAluCount = 4;
    unsigned intMultCount = 4;
    unsigned fpAddCount = 4;
    unsigned fpDivCount = 4;
    unsigned memPortCount = 2;

    Cycle intAluLatency = 1;
    Cycle intMultLatency = 8;
    Cycle fpAddLatency = 4;
    Cycle fpDivLatency = 16;
};

/**
 * Tracks busy-until times of every unit and assigns work greedily.
 * Units are fully pipelined except for their issue slot: a unit can
 * accept a new operation one cycle after the previous one issued,
 * which approximates the pipelined FUs of the modelled machine while
 * still creating structural hazards under bursts.
 */
class FuncUnits
{
  public:
    explicit FuncUnits(const FuncUnitConfig &config = {});

    /**
     * Schedule an operation of class @p cls that becomes ready at
     * @p ready, on the unit of its pool that frees up first (the
     * lowest-numbered one on a tie).
     * @return the cycle the operation issues (>= ready).
     *
     * Loads/stores schedule their address-generation/memory-port slot
     * here; the cache latency is added by the caller.
     */
    Cycle
    issue(InstrClass cls, Cycle ready)
    {
        const Pool &pool = pools_[std::size_t(cls)];
        Cycle *free_at = freeAt_.data() + pool.first;
        unsigned best = 0;
        Cycle best_at = free_at[0];
        for (unsigned u = 1; u < pool.units; ++u) {
            const bool earlier = free_at[u] < best_at;
            best = earlier ? u : best;
            best_at = earlier ? free_at[u] : best_at;
        }
        const Cycle start = ready > best_at ? ready : best_at;
        // Pipelined: the unit accepts another op next cycle.
        free_at[best] = start + 1;
        return start;
    }

    /** Execution latency of class @p cls (1 for loads/stores: port
     *  occupancy only; memory time is modelled by the hierarchy). */
    Cycle
    latency(InstrClass cls) const
    {
        return pools_[std::size_t(cls)].latency;
    }

    /** Cycle unit @p unit of @p cls's pool next accepts an op. */
    Cycle
    freeAt(InstrClass cls, unsigned unit) const
    {
        return freeAt_[pools_[std::size_t(cls)].first + unit];
    }

  private:
    /** The units serving one instruction class. */
    struct Pool
    {
        unsigned first = 0;  //!< index of its first unit in freeAt_
        unsigned units = 0;
        Cycle latency = 0;
    };

    std::array<Pool, std::size_t(InstrClass::NumClasses)> pools_;
    /** Busy-until time of every unit, pool after pool. */
    std::vector<Cycle> freeAt_;
};

} // namespace adcache

#endif // ADCACHE_CPU_FUNC_UNITS_HH
