#include "cpu/branch_predictor.hh"

#include <gtest/gtest.h>

#include <vector>

#include "util/bits.hh"
#include "util/rng.hh"
#include "util/sat_counter.hh"

namespace adcache
{
namespace
{

TEST(BranchPredictor, LearnsAlwaysTaken)
{
    BranchPredictor bp;
    const Addr pc = 0x4000;
    for (int i = 0; i < 8; ++i)
        bp.update(pc, true);
    EXPECT_TRUE(bp.predict(pc));
    EXPECT_FALSE(bp.update(pc, true));
}

TEST(BranchPredictor, LearnsAlwaysNotTaken)
{
    BranchPredictor bp;
    const Addr pc = 0x4000;
    for (int i = 0; i < 8; ++i)
        bp.update(pc, false);
    EXPECT_FALSE(bp.predict(pc));
}

TEST(BranchPredictor, GshareLearnsAlternatingPattern)
{
    // T,N,T,N... is hopeless for bimodal but trivial for gshare with
    // global history; the hybrid must converge to high accuracy.
    BranchPredictor bp;
    const Addr pc = 0x1234;
    bool taken = false;
    // Warm up.
    for (int i = 0; i < 200; ++i) {
        bp.update(pc, taken);
        taken = !taken;
    }
    int mispredicts = 0;
    for (int i = 0; i < 200; ++i) {
        if (bp.update(pc, taken))
            ++mispredicts;
        taken = !taken;
    }
    EXPECT_LT(mispredicts, 10);
}

TEST(BranchPredictor, LearnsHistoryCorrelatedPattern)
{
    // Outcome = outcome three branches ago: pure history correlation.
    BranchPredictor bp;
    const Addr pc = 0x8888;
    const bool pattern[] = {true, true, false};
    for (int i = 0; i < 300; ++i)
        bp.update(pc, pattern[i % 3]);
    int mispredicts = 0;
    for (int i = 300; i < 600; ++i)
        mispredicts += bp.update(pc, pattern[i % 3]) ? 1 : 0;
    EXPECT_LT(mispredicts, 15);
}

TEST(BranchPredictor, RandomBranchesNearFiftyPercent)
{
    BranchPredictor bp;
    Rng rng(5);
    const Addr pc = 0x2000;
    std::uint64_t mispredicts = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        mispredicts += bp.update(pc, rng.chance(0.5)) ? 1 : 0;
    EXPECT_NEAR(double(mispredicts) / n, 0.5, 0.08);
}

TEST(BranchPredictor, BiasedBranchesBeatCoinFlip)
{
    BranchPredictor bp;
    Rng rng(6);
    const Addr pc = 0x3000;
    std::uint64_t mispredicts = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        mispredicts += bp.update(pc, rng.chance(0.9)) ? 1 : 0;
    EXPECT_LT(double(mispredicts) / n, 0.2);
}

TEST(BranchPredictor, StatsAccumulate)
{
    BranchPredictor bp;
    for (int i = 0; i < 10; ++i)
        bp.update(0x100, true);
    EXPECT_EQ(bp.stats().lookups, 10u);
    EXPECT_LE(bp.stats().mispredicts, 10u);
    EXPECT_GE(bp.stats().accuracy(), 0.0);
    EXPECT_LE(bp.stats().accuracy(), 1.0);
}

TEST(BranchPredictor, DistinctPcsIndependentInBimodal)
{
    BranchPredictor bp;
    for (int i = 0; i < 20; ++i) {
        bp.update(0x1000, true);
        bp.update(0x2000, false);
    }
    EXPECT_TRUE(bp.predict(0x1000));
    EXPECT_FALSE(bp.predict(0x2000));
}

/**
 * The reference hybrid predictor: the same tables, indexing and
 * training, with every counter a SatCounter(2, ...) state machine.
 */
class ReferencePredictor
{
  public:
    explicit ReferencePredictor(const BranchPredictorConfig &c)
        : c_(c), bimodal_(c.tableEntries, SatCounter(2, 1)),
          gshare_(c.tableEntries, SatCounter(2, 1)),
          meta_(c.tableEntries, SatCounter(2, 2))
    {
    }

    bool
    predict(Addr pc) const
    {
        return meta_[bi(pc)].high() ? gshare_[gi(pc)].high()
                                    : bimodal_[bi(pc)].high();
    }

    bool
    update(Addr pc, bool taken)
    {
        const unsigned b = bi(pc), g = gi(pc);
        const bool bimodal_pred = bimodal_[b].high();
        const bool gshare_pred = gshare_[g].high();
        const bool pred = meta_[b].high() ? gshare_pred : bimodal_pred;
        if (bimodal_pred != gshare_pred) {
            if (gshare_pred == taken)
                meta_[b].increment();
            else
                meta_[b].decrement();
        }
        if (taken) {
            bimodal_[b].increment();
            gshare_[g].increment();
        } else {
            bimodal_[b].decrement();
            gshare_[g].decrement();
        }
        history_ = (history_ << 1) | (taken ? 1 : 0);
        return pred != taken;
    }

  private:
    unsigned
    bi(Addr pc) const
    {
        return unsigned((pc >> 2) & (c_.tableEntries - 1));
    }

    unsigned
    gi(Addr pc) const
    {
        const Addr h = history_ & lowMask(c_.historyBits);
        return unsigned(((pc >> 2) ^ h) & (c_.tableEntries - 1));
    }

    BranchPredictorConfig c_;
    std::vector<SatCounter> bimodal_, gshare_, meta_;
    std::uint64_t history_ = 0;
};

TEST(BranchPredictor, MatchesSatCounterReference)
{
    BranchPredictorConfig small;
    small.tableEntries = 1024;  // heavy aliasing
    small.historyBits = 10;
    for (const BranchPredictorConfig &config :
         {BranchPredictorConfig{}, small}) {
        BranchPredictor bp(config);
        ReferencePredictor ref(config);
        // A static branch population with per-branch biases, drawn
        // in a random order: biased, random and alternating-ish mixes.
        Rng rng(config.tableEntries);
        std::vector<Addr> pcs(4096);
        std::vector<double> bias(pcs.size());
        for (std::size_t b = 0; b < pcs.size(); ++b) {
            pcs[b] = 0x400000 + 4 * rng.below(1 << 20);
            bias[b] = rng.uniform();
        }
        std::uint64_t mispredicts = 0;
        for (int i = 0; i < 1'000'000; ++i) {
            const std::size_t b = rng.below(pcs.size());
            const bool taken = rng.chance(bias[b]);
            ASSERT_EQ(bp.predict(pcs[b]), ref.predict(pcs[b]))
                << "branch " << i;
            const bool miss = bp.update(pcs[b], taken);
            ASSERT_EQ(miss, ref.update(pcs[b], taken)) << "branch " << i;
            mispredicts += miss;
        }
        EXPECT_EQ(bp.stats().lookups, 1'000'000u);
        EXPECT_EQ(bp.stats().mispredicts, mispredicts);
    }
}

} // namespace
} // namespace adcache
