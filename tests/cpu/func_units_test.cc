#include "cpu/func_units.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hh"

namespace adcache
{
namespace
{

TEST(FuncUnits, Latencies)
{
    FuncUnits fus;
    EXPECT_EQ(fus.latency(InstrClass::IntAlu), 1u);
    EXPECT_EQ(fus.latency(InstrClass::IntMult), 8u);
    EXPECT_EQ(fus.latency(InstrClass::FpAdd), 4u);
    EXPECT_EQ(fus.latency(InstrClass::FpDiv), 16u);
    EXPECT_EQ(fus.latency(InstrClass::Load), 1u);
    EXPECT_EQ(fus.latency(InstrClass::Branch), 1u);
}

TEST(FuncUnits, IssuesAtReadyWhenIdle)
{
    FuncUnits fus;
    EXPECT_EQ(fus.issue(InstrClass::IntAlu, 10), 10u);
}

TEST(FuncUnits, FourAluOpsPerCycleThenStall)
{
    FuncUnits fus;
    // Four ALUs: four ops issue at cycle 5; the fifth waits a cycle.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(fus.issue(InstrClass::IntAlu, 5), 5u);
    EXPECT_EQ(fus.issue(InstrClass::IntAlu, 5), 6u);
}

TEST(FuncUnits, TwoMemoryPorts)
{
    FuncUnits fus;
    EXPECT_EQ(fus.issue(InstrClass::Load, 0), 0u);
    EXPECT_EQ(fus.issue(InstrClass::Store, 0), 0u);
    EXPECT_EQ(fus.issue(InstrClass::Load, 0), 1u)
        << "third memory op must wait for a port";
}

TEST(FuncUnits, PoolsAreIndependent)
{
    FuncUnits fus;
    for (int i = 0; i < 4; ++i)
        fus.issue(InstrClass::IntAlu, 0);
    // ALUs saturated at cycle 0, but FP units are free.
    EXPECT_EQ(fus.issue(InstrClass::FpAdd, 0), 0u);
    EXPECT_EQ(fus.issue(InstrClass::IntMult, 0), 0u);
}

TEST(FuncUnits, PipelinedUnitsAcceptNextCycle)
{
    FuncUnitConfig c;
    c.intMultCount = 1;
    FuncUnits fus(c);
    EXPECT_EQ(fus.issue(InstrClass::IntMult, 0), 0u);
    // Pipelined: the single multiplier takes a new op next cycle,
    // not after its full 8-cycle latency.
    EXPECT_EQ(fus.issue(InstrClass::IntMult, 0), 1u);
}

TEST(FuncUnits, CustomCounts)
{
    FuncUnitConfig c;
    c.memPortCount = 1;
    FuncUnits fus(c);
    EXPECT_EQ(fus.issue(InstrClass::Load, 0), 0u);
    EXPECT_EQ(fus.issue(InstrClass::Load, 0), 1u);
}

TEST(FuncUnits, LowestIndexWinsAmongEqualFreeTimes)
{
    FuncUnits fus;
    // All four ALUs free at 0: each op takes the lowest free unit.
    for (unsigned op = 0; op < 4; ++op) {
        EXPECT_EQ(fus.issue(InstrClass::IntAlu, 5), 5u);
        for (unsigned u = 0; u < 4; ++u)
            EXPECT_EQ(fus.freeAt(InstrClass::IntAlu, u),
                      u <= op ? 6u : 0u)
                << "after op " << op << ", unit " << u;
    }
    // All tied again at 6: unit 0 first.
    EXPECT_EQ(fus.issue(InstrClass::Branch, 0), 6u);
    EXPECT_EQ(fus.freeAt(InstrClass::IntAlu, 0), 7u);
    EXPECT_EQ(fus.freeAt(InstrClass::IntAlu, 1), 6u);
}

TEST(FuncUnits, MatchesReferencePoolScheduler)
{
    // Reference: per pool, the first unit with the minimum free time
    // (std::min_element) takes the op.
    const FuncUnitConfig config;
    FuncUnits fus(config);
    const auto pool_of = [](InstrClass cls) {
        switch (cls) {
          case InstrClass::IntMult:
            return 1;
          case InstrClass::FpAdd:
            return 2;
          case InstrClass::FpDiv:
            return 3;
          case InstrClass::Load:
          case InstrClass::Store:
            return 4;
          default:
            return 0;
        }
    };
    std::vector<std::vector<Cycle>> pools = {
        std::vector<Cycle>(config.intAluCount),
        std::vector<Cycle>(config.intMultCount),
        std::vector<Cycle>(config.fpAddCount),
        std::vector<Cycle>(config.fpDivCount),
        std::vector<Cycle>(config.memPortCount)};
    Rng rng(3);
    Cycle now = 0;
    for (int i = 0; i < 200'000; ++i) {
        const auto cls = InstrClass(rng.below(7));
        now += rng.below(3);
        const Cycle ready = now + rng.below(4);
        auto &pool = pools[pool_of(cls)];
        const auto unit = std::min_element(pool.begin(), pool.end());
        const Cycle start = std::max(ready, *unit);
        *unit = start + 1;
        ASSERT_EQ(fus.issue(cls, ready), start) << "op " << i;
        for (unsigned u = 0; u < pool.size(); ++u)
            ASSERT_EQ(fus.freeAt(cls, u), pool[u]) << "op " << i;
    }
}

} // namespace
} // namespace adcache
