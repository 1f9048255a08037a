/**
 * @file
 * Branch target buffer: 4K-entry, 4-way set associative (Table 1).
 * A taken branch whose target misses in the BTB costs a fetch bubble
 * even when its direction was predicted correctly.
 */

#ifndef ADCACHE_CPU_BTB_HH
#define ADCACHE_CPU_BTB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "util/types.hh"

namespace adcache
{

/** BTB sizing. */
struct BtbConfig
{
    unsigned entries = 4096;
    unsigned assoc = 4;
};

/** BTB hit/miss counters. */
struct BtbStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
};

/** Set-associative branch target buffer with LRU replacement. */
class Btb
{
  public:
    explicit Btb(const BtbConfig &config = {});

    /** Predicted target of the branch at @p pc, if cached. */
    std::optional<Addr> lookup(Addr pc);

    /**
     * Install/refresh the target of a taken branch.
     * @return true iff the branch was already cached.
     */
    bool update(Addr pc, Addr target);

    /**
     * A taken branch resolved to @p target: lookup() and update() in
     * one pass over the set.
     * @return true iff the branch was cached (a lookup hit).
     */
    bool resolve(Addr pc, Addr target);

    const BtbStats &stats() const { return stats_; }

  private:
    struct Entry
    {
        Addr tag = 0;
        Addr target = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    /** The way of @p pc's set holding it, and whether it is there. */
    struct Probe
    {
        Entry *way;  //!< the hit, else the way a fill claims
        bool hit;
    };

    /**
     * Scan @p pc's set once: its way on a hit, else the first
     * invalid way, else the least recently used one.
     */
    Probe probe(Addr pc);

    unsigned setIndex(Addr pc) const;
    Addr tagOf(Addr pc) const;

    BtbConfig config_;
    unsigned numSets_;
    unsigned setBits_;  //!< log2(numSets_)
    std::vector<Entry> entries_;
    std::uint64_t clock_ = 0;
    BtbStats stats_;
};

} // namespace adcache

#endif // ADCACHE_CPU_BTB_HH
