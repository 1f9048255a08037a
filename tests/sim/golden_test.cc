/**
 * @file
 * Golden simulated outputs: exact counters of short timed runs on the
 * Table-1 machine with the paper's LRU/LFU adaptive L2.
 *
 * Every other sim test checks a property (a bound, an ordering, a
 * ratio), so a change that perturbs simulated results could still
 * pass them. These constants pin the results themselves. Re-record
 * them only for an intentional change to the model (a new workload
 * shape, a core or cache model fix), never to absorb a performance
 * change: a speed-up must leave every count here untouched.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "sim/config.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

namespace adcache
{
namespace
{

constexpr InstCount goldenBudget = 300'000;

struct Golden
{
    const char *bench;
    Cycle cycles;
    std::uint64_t l1iMisses;
    std::uint64_t l1dMisses;
    std::uint64_t l2DemandAccesses;
    std::uint64_t l2DemandMisses;
    std::uint64_t mispredicts;
    std::uint64_t btbMisses;
    Cycle storeBufferStallCycles;
};

void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.bench;
}

class GoldenRun : public ::testing::TestWithParam<Golden>
{
};

TEST_P(GoldenRun, ExactCounters)
{
    const Golden &g = GetParam();
    const BenchmarkDef *def = findBenchmark(g.bench);
    ASSERT_NE(def, nullptr);
    SystemConfig config;
    config.l2 = L2Spec::adaptiveLruLfu();
    System sys(config);
    const auto src = makeBenchmark(*def);
    const SimResult r = sys.runTimed(*src, goldenBudget);

    EXPECT_EQ(r.core.instructions, goldenBudget);
    EXPECT_EQ(r.core.cycles, g.cycles);
    EXPECT_EQ(r.l1i.misses, g.l1iMisses);
    EXPECT_EQ(r.l1d.misses, g.l1dMisses);
    EXPECT_EQ(r.l2DemandAccesses, g.l2DemandAccesses);
    EXPECT_EQ(r.l2DemandMisses, g.l2DemandMisses);
    EXPECT_EQ(r.core.mispredicts, g.mispredicts);
    EXPECT_EQ(r.core.btbMisses, g.btbMisses);
    EXPECT_EQ(r.core.storeBuffer.stallCycles, g.storeBufferStallCycles);
}

INSTANTIATE_TEST_SUITE_P(
    Table1AdaptiveL2, GoldenRun,
    ::testing::Values(
        // bench, cycles, L1I misses, L1D misses, L2 demand
        // accesses, L2 demand misses, mispredicts, BTB misses,
        // store-buffer stall cycles
        Golden{"ammp", 1769563, 192, 42188, 57839, 13951, 2765, 163,
               20646},
        Golden{"mgrid", 2272402, 192, 38278, 51400, 19296, 3427, 351,
               14865},
        Golden{"art-1", 1261333, 192, 33365, 46082, 9839, 2747, 167,
               13063},
        Golden{"lucas", 1180905, 192, 25611, 35377, 8598, 2994, 186,
               7878},
        Golden{"mcf", 3336817, 18750, 38696, 70457, 22418, 8858, 858,
               18113},
        Golden{"x11quake-1", 1126255, 192, 28613, 37788, 8006, 5897, 338,
               3148}),
    [](const auto &info) {
        std::string n = info.param.bench;
        for (auto &ch : n)
            if (ch == '-')
                ch = '_';
        return n;
    });

} // namespace
} // namespace adcache
