#include "sim/experiment.hh"

#include <gtest/gtest.h>

#include <cstdlib>

namespace adcache
{
namespace
{

TEST(Experiment, ParseBudgetDefaultsWithoutEnv)
{
    EXPECT_EQ(parseInstrBudget(nullptr, 3'000'000), 3'000'000u);
}

TEST(Experiment, ParseBudgetReadsText)
{
    EXPECT_EQ(parseInstrBudget("42000", 3'000'000), 42'000u);
}

TEST(Experiment, ParseBudgetRejectsMalformed)
{
    EXPECT_EQ(parseInstrBudget("bogus", 3'000'000), 3'000'000u);
    EXPECT_EQ(parseInstrBudget("12x", 3'000'000), 3'000'000u);
    EXPECT_EQ(parseInstrBudget("0", 3'000'000), 3'000'000u);
    // strtoull would wrap these to huge positive budgets.
    EXPECT_EQ(parseInstrBudget("-5", 3'000'000), 3'000'000u);
    EXPECT_EQ(parseInstrBudget("+5", 3'000'000), 3'000'000u);
    EXPECT_EQ(parseInstrBudget(" 5", 3'000'000), 3'000'000u);
    // Beyond 2^64: strtoull would clamp it to a budget that never ends.
    EXPECT_EQ(parseInstrBudget("99999999999999999999", 3'000'000),
              3'000'000u);
}

TEST(Experiment, BudgetIsParsedOnce)
{
    // The suite-wide budget is cached on first use; later environment
    // changes must not shift it mid-suite.
    const InstCount first = instrBudget();
    setenv("ADCACHE_INSTRS", "123456", 1);
    EXPECT_EQ(instrBudget(), first);
    unsetenv("ADCACHE_INSTRS");
    EXPECT_EQ(instrBudget(), first);
}

TEST(Experiment, RunSuiteShape)
{
    const auto *bench = findBenchmark("parser");
    ASSERT_NE(bench, nullptr);
    const std::vector<L2Spec> variants = {
        L2Spec::lru(), L2Spec::adaptiveLruLfu()};
    const auto rows = runSuite({bench}, variants, 50'000, false);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].benchmark, "parser");
    ASSERT_EQ(rows[0].results.size(), 2u);
    EXPECT_GT(rows[0].results[0].l2.accesses, 0u);
}

TEST(Experiment, AverageOfMetric)
{
    const auto *a = findBenchmark("parser");
    const auto *b = findBenchmark("gap");
    const std::vector<L2Spec> variants = {L2Spec::lru()};
    const auto rows = runSuite({a, b}, variants, 50'000, false);
    const auto avg = averageOf(rows, metricL2Mpki);
    ASSERT_EQ(avg.size(), 1u);
    const double expect = (rows[0].results[0].l2Mpki +
                           rows[1].results[0].l2Mpki) /
                          2.0;
    EXPECT_DOUBLE_EQ(avg[0], expect);
}

TEST(Experiment, TimedRunsFillCpi)
{
    const auto *bench = findBenchmark("parser");
    const auto res = runTimed(SystemConfig{}, *bench, 50'000);
    EXPECT_GT(res.cpi, 0.0);
    EXPECT_EQ(res.benchmark, "parser");
}

TEST(Experiment, FunctionalRunsSkipCpi)
{
    const auto *bench = findBenchmark("parser");
    const auto res = runFunctional(SystemConfig{}, *bench, 50'000);
    EXPECT_EQ(res.cpi, 0.0);
    EXPECT_GT(res.l2Mpki, 0.0);
}

TEST(Experiment, MetricExtractors)
{
    SimResult r;
    r.cpi = 1.5;
    r.l2Mpki = 7.0;
    r.l1iMpki = 0.5;
    r.l1dMpki = 20.0;
    EXPECT_DOUBLE_EQ(metricCpi(r), 1.5);
    EXPECT_DOUBLE_EQ(metricL2Mpki(r), 7.0);
    EXPECT_DOUBLE_EQ(metricL1iMpki(r), 0.5);
    EXPECT_DOUBLE_EQ(metricL1dMpki(r), 20.0);
}

} // namespace
} // namespace adcache
