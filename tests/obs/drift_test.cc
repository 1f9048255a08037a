/**
 * @file
 * DriftMonitor + TelemetryPump tests with synthetic flip storms:
 * warmup suppression, edge-triggered crossings, cooldown latching,
 * idle-period EWMA freezing, and the pump loop end to end —
 * driftSampler deltas in, kv_drift log lines + scraped drift rows out.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/drift.hh"
#include "obs/metrics.hh"
#include "obs/pump.hh"

using namespace adcache::obs;

namespace
{

DriftConfig
fastConfig()
{
    DriftConfig config;
    config.alpha = 0.5;
    config.flipRateThreshold = 1e-2; // one flip per 100 ops
    config.diffMissRateThreshold = 1e-1;
    config.warmupSamples = 2;
    config.cooldownSamples = 3;
    return config;
}

} // namespace

TEST(DriftMonitor, WarmupSuppressesEarlyStorms)
{
    DriftMonitor monitor(fastConfig());
    // A violent flip storm from the first period: rate 0.5 per op,
    // 50x the threshold — but the shard is not warm yet.
    DriftVerdict v = monitor.sample(0, 500, 0, 1000);
    EXPECT_FALSE(v.flipDrift);
    v = monitor.sample(0, 500, 0, 1000);
    EXPECT_FALSE(v.flipDrift);
    // Warm now (warmupSamples = 2 observed): third period fires.
    v = monitor.sample(0, 500, 0, 1000);
    EXPECT_TRUE(v.flipDrift);
    EXPECT_GT(v.flipEwma, 0.4);
}

TEST(DriftMonitor, CooldownLatchesRepeatCrossings)
{
    DriftMonitor monitor(fastConfig());
    for (int i = 0; i < 3; ++i)
        monitor.sample(0, 100, 0, 1000); // warm up + first fire
    // Still above threshold: latched for cooldownSamples periods.
    EXPECT_FALSE(monitor.sample(0, 100, 0, 1000).flipDrift);
    EXPECT_FALSE(monitor.sample(0, 100, 0, 1000).flipDrift);
    EXPECT_FALSE(monitor.sample(0, 100, 0, 1000).flipDrift);
    // Cooldown expired and the rate is still high: fresh crossing.
    EXPECT_TRUE(monitor.sample(0, 100, 0, 1000).flipDrift);
}

TEST(DriftMonitor, QuietShardsNeverFire)
{
    DriftMonitor monitor(fastConfig());
    for (int i = 0; i < 20; ++i) {
        const DriftVerdict v = monitor.sample(0, 0, 0, 1000);
        EXPECT_FALSE(v.flipDrift);
        EXPECT_FALSE(v.diffMissDrift);
        EXPECT_EQ(v.flipEwma, 0.0);
    }
}

TEST(DriftMonitor, IdlePeriodsLeaveTheEwmaUntouched)
{
    DriftMonitor monitor(fastConfig());
    monitor.sample(0, 100, 0, 1000);
    const double ewma = monitor.sample(0, 100, 0, 1000).flipEwma;
    EXPECT_GT(ewma, 0.0);
    // No ops at all: unobserved, not calm — EWMA must not decay.
    const DriftVerdict idle = monitor.sample(0, 0, 0, 0);
    EXPECT_EQ(idle.flipEwma, ewma);
}

TEST(DriftMonitor, StormDecaysAfterTheWorkloadSettles)
{
    DriftMonitor monitor(fastConfig());
    for (int i = 0; i < 4; ++i)
        monitor.sample(0, 200, 0, 1000);
    double ewma = monitor.sample(0, 200, 0, 1000).flipEwma;
    // Settled workload: flips stop, EWMA halves each period
    // (alpha = 0.5) until it is below threshold again.
    for (int i = 0; i < 6; ++i) {
        const DriftVerdict v = monitor.sample(0, 0, 0, 1000);
        EXPECT_LT(v.flipEwma, ewma);
        ewma = v.flipEwma;
    }
    EXPECT_LT(ewma, fastConfig().flipRateThreshold);
}

TEST(DriftMonitor, SignalsAreIndependentPerShard)
{
    DriftMonitor monitor(fastConfig());
    for (int i = 0; i < 3; ++i) {
        // Shard 0 storms flips; shard 1 storms diff-misses.
        const DriftVerdict v0 = monitor.sample(0, 100, 0, 1000);
        const DriftVerdict v1 = monitor.sample(1, 0, 500, 1000);
        if (i == 2) {
            EXPECT_TRUE(v0.flipDrift);
            EXPECT_FALSE(v0.diffMissDrift);
            EXPECT_TRUE(v1.diffMissDrift);
            EXPECT_FALSE(v1.flipDrift);
        }
    }
}

TEST(TelemetryPump, TurnsCumulativeCountersIntoCrossings)
{
    MetricsRegistry reg;
    std::vector<std::string> lines;
    std::uint64_t flips = 0;
    std::uint64_t ops = 0;

    TelemetryPumpConfig config;
    config.drift = fastConfig();
    config.logSink = [&lines](const std::string &line) {
        lines.push_back(line);
    };
    // Cumulative counters, as a live cache would expose them.
    config.driftSampler = [&]() {
        std::vector<DriftShardSample> out(1);
        out[0].flips = flips;
        out[0].diffMisses = 0;
        out[0].ops = ops;
        return out;
    };
    TelemetryPump pump(std::move(config));
    pump.registerMetrics(reg);

    // Baseline tick, then a sustained storm: +100 flips per +1000
    // ops each period.
    for (int i = 0; i < 4; ++i) {
        flips += 100;
        ops += 1000;
        pump.tickOnce();
    }
    EXPECT_EQ(pump.periods(), 4u);
    ASSERT_GE(pump.driftEvents(), 1u);
    ASSERT_FALSE(lines.empty());
    EXPECT_NE(lines[0].find("kv_drift shard=0"),
              std::string::npos);
    EXPECT_NE(lines[0].find("signal=winner_flips"),
              std::string::npos);

    // The EWMA gauge and crossing counter are in the scrape.
    const MetricsSnapshot snap = reg.scrape();
    const MetricSample *gauge = snap.find(
        "adcache_kv_drift_flip_ewma", "shard", "0");
    ASSERT_NE(gauge, nullptr);
    EXPECT_GT(gauge->value, 0.0);
    const MetricSample *events =
        snap.find("adcache_kv_drift_events_total", "", "");
    ASSERT_NE(events, nullptr);
    EXPECT_GE(events->value, 1.0);
}

TEST(TelemetryPump, QuietSamplersProduceNoEvents)
{
    TelemetryPumpConfig config;
    config.drift = fastConfig();
    std::vector<std::string> lines;
    config.logSink = [&lines](const std::string &line) {
        lines.push_back(line);
    };
    config.driftSampler = [] {
        return std::vector<DriftShardSample>(2);
    };
    TelemetryPump pump(std::move(config));
    for (int i = 0; i < 10; ++i)
        pump.tickOnce();
    EXPECT_EQ(pump.periods(), 10u);
    EXPECT_EQ(pump.driftEvents(), 0u);
    EXPECT_TRUE(lines.empty());
}

TEST(TelemetryPump, StartStopIsIdempotentAndTicks)
{
    TelemetryPumpConfig config;
    config.period = std::chrono::milliseconds(5);
    config.driftSampler = [] {
        return std::vector<DriftShardSample>(1);
    };
    TelemetryPump pump(std::move(config));
    pump.start();
    pump.start();
    // The thread ticks on its own cadence; just verify liveness.
    for (int spins = 0; spins < 400 && pump.periods() == 0; ++spins)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GT(pump.periods(), 0u);
    pump.stop();
    pump.stop();
}
