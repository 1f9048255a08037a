/**
 * @file
 * The hybrid branch predictor of Table 1: 16 KB gshare + 16 KB
 * bimodal + 16 KB meta chooser. 16 KB of 2-bit counters = 64 K
 * entries per table, each counter held in one byte.
 */

#ifndef ADCACHE_CPU_BRANCH_PREDICTOR_HH
#define ADCACHE_CPU_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hh"

namespace adcache
{

class StatRegistry;

/** Predictor sizing. */
struct BranchPredictorConfig
{
    unsigned tableEntries = 64 * 1024;  //!< per component (16KB @2b)
    unsigned historyBits = 16;          //!< gshare global history
};

/** Accuracy counters. */
struct BranchPredictorStats
{
    std::uint64_t lookups = 0;
    std::uint64_t mispredicts = 0;

    double
    accuracy() const
    {
        return lookups == 0
                   ? 1.0
                   : 1.0 - double(mispredicts) / double(lookups);
    }

    /** Register every counter under "<prefix><name>". */
    void registerInto(StatRegistry &reg,
                      const std::string &prefix) const;
};

/** gshare/bimodal/meta hybrid direction predictor. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const BranchPredictorConfig &config = {});

    /** Predict the direction of the branch at @p pc. */
    bool predict(Addr pc) const;

    /**
     * Train with the resolved outcome and update global history.
     * @return true iff the pre-update prediction was wrong.
     */
    bool update(Addr pc, bool taken);

    const BranchPredictorStats &stats() const { return stats_; }

  private:
    /**
     * A 2-bit saturating counter, 0..3: the upper half (2, 3)
     * predicts taken.
     */
    using Counter = std::uint8_t;

    static bool high(Counter c) { return c >= 2; }

    /** Count up (saturating at 3) or down (saturating at 0). */
    static void
    train(Counter &c, bool up)
    {
        c = up ? c + (c < 3) : c - (c > 0);
    }

    unsigned bimodalIndex(Addr pc) const;
    unsigned gshareIndex(Addr pc) const;

    BranchPredictorConfig config_;
    std::uint64_t historyMask_;
    std::vector<Counter> bimodal_;
    std::vector<Counter> gshare_;
    std::vector<Counter> meta_;  //!< high = trust gshare
    std::uint64_t history_ = 0;
    mutable BranchPredictorStats stats_;
};

} // namespace adcache

#endif // ADCACHE_CPU_BRANCH_PREDICTOR_HH
