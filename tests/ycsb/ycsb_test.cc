/**
 * @file
 * YCSB driver tests over the loopback transport: every workload mix
 * (A–F) completes with exact op accounting and zero validation
 * failures, per-class op sums match the configured totals, identical
 * seeds give identical op-class splits (determinism), the latency
 * histograms actually fill (readP99Ns > 0), scenario injection is
 * observable (shard loss produces Error responses; hot-key storm
 * still validates), TTL runs lapse entries without validation
 * failures, and registerInto emits the standard report stats.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "net/service.hh"
#include "util/stat_registry.hh"
#include "ycsb/ycsb.hh"

using namespace adcache;
using namespace adcache::ycsb;

namespace
{

net::KvServiceConfig
smallService()
{
    net::KvServiceConfig c;
    c.cache.capacity = 4096;
    c.cache.numShards = 4;
    c.cache.numBuckets = 256;
    c.cache.bucketWays = 4;
    c.readThrough = true;
    c.loaderValues = ValueSpec{24, 48};
    return c;
}

YcsbConfig
smallRun(char workload)
{
    YcsbConfig c;
    c.workload = workload;
    c.records = 4096;
    c.opsPerClient = 2'000;
    c.clients = 2;
    c.values = ValueSpec{24, 48};
    c.scanLen = 4;
    c.seed = 7;
    return c;
}

YcsbResult
runLoopback(const YcsbConfig &config, net::KvService &service)
{
    YcsbDriver driver(config, &service, [&](unsigned) {
        return makeLoopbackConnection(service);
    });
    return driver.run();
}

std::uint64_t
totalClassOps(const YcsbResult &r)
{
    std::uint64_t total = 0;
    for (const auto &c : r.classes)
        total += c.ops;
    return total;
}

TEST(Ycsb, EveryWorkloadCompletesCleanly)
{
    for (char w : {'a', 'b', 'c', 'd', 'e', 'f'}) {
        net::KvService service(smallService());
        const YcsbConfig config = smallRun(w);
        const YcsbResult r = runLoopback(config, service);

        EXPECT_EQ(r.runOps,
                  std::uint64_t(config.clients) *
                      config.opsPerClient)
            << "workload " << w;
        EXPECT_EQ(totalClassOps(r), r.runOps) << "workload " << w;
        // Unpipelined, every op is one latency sample of its class, so
        // the samples also sum to clients x opsPerClient.
        for (const OpClassResult &c : r.classes)
            EXPECT_EQ(c.latency.count(), c.ops) << "workload " << w;
        EXPECT_EQ(r.validationFailures, 0u) << "workload " << w;
        EXPECT_EQ(r.errors, 0u) << "workload " << w;
        EXPECT_GT(r.loadOps, 0u) << "workload " << w;
        EXPECT_GT(r.opsPerSec(), 0.0) << "workload " << w;
        EXPECT_GT(r.readP99Ns(), 0.0) << "workload " << w;
    }
}

TEST(Ycsb, MixesLandInTheRightOpClasses)
{
    net::KvService service_c(smallService());
    const YcsbResult c = runLoopback(smallRun('c'), service_c);
    EXPECT_EQ(c.of(OpClass::Read).ops, c.runOps); // C: 100% read
    EXPECT_EQ(c.of(OpClass::Update).ops, 0u);

    net::KvService service_a(smallService());
    const YcsbResult a = runLoopback(smallRun('a'), service_a);
    // A: 50/50 read/update — both sides must be substantial.
    EXPECT_GT(a.of(OpClass::Read).ops, a.runOps / 3);
    EXPECT_GT(a.of(OpClass::Update).ops, a.runOps / 3);
    EXPECT_EQ(a.of(OpClass::Insert).ops, 0u);

    net::KvService service_d(smallService());
    const YcsbResult d = runLoopback(smallRun('d'), service_d);
    EXPECT_GT(d.of(OpClass::Insert).ops, 0u); // D: 5% inserts
    EXPECT_GT(d.of(OpClass::Read).ops, d.of(OpClass::Insert).ops);

    net::KvService service_e(smallService());
    const YcsbResult e = runLoopback(smallRun('e'), service_e);
    EXPECT_GT(e.of(OpClass::Scan).ops, 0u); // E: 95% scans
    EXPECT_EQ(e.of(OpClass::Update).ops, 0u);

    net::KvService service_f(smallService());
    const YcsbResult f = runLoopback(smallRun('f'), service_f);
    EXPECT_GT(f.of(OpClass::ReadModifyWrite).ops, f.runOps / 3);
}

TEST(Ycsb, PipelinedDepthBatchesReadsIntoMGet)
{
    net::KvService service(smallService());
    YcsbConfig config = smallRun('c'); // 100% read
    config.pipelineDepth = 16;
    const YcsbResult r = runLoopback(config, service);

    // Every read draw is served through the batch path.
    EXPECT_EQ(r.of(OpClass::Read).ops, 0u);
    EXPECT_EQ(r.of(OpClass::MGet).ops, r.runOps);
    EXPECT_EQ(r.runOps,
              std::uint64_t(config.clients) * config.opsPerClient);
    EXPECT_EQ(totalClassOps(r), r.runOps);
    EXPECT_EQ(r.validationFailures, 0u);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_GT(r.readP99Ns(), 0.0); // falls back to the MGet class
}

TEST(Ycsb, PipelinedMixedWorkloadKeepsExactAccounting)
{
    net::KvService service(smallService());
    YcsbConfig config = smallRun('b'); // 95% read, 5% update
    config.pipelineDepth = 7;          // deliberately odd depth
    const YcsbResult r = runLoopback(config, service);

    EXPECT_GT(r.of(OpClass::MGet).ops, 0u);
    EXPECT_EQ(r.of(OpClass::Read).ops, 0u);
    EXPECT_GT(r.of(OpClass::Update).ops, 0u);
    EXPECT_EQ(r.runOps,
              std::uint64_t(config.clients) * config.opsPerClient);
    EXPECT_EQ(totalClassOps(r), r.runOps);
    EXPECT_EQ(r.validationFailures, 0u);
    EXPECT_EQ(r.errors, 0u);
}

TEST(Ycsb, DepthOneIsIdenticalToUnpipelined)
{
    net::KvService s1(smallService());
    const YcsbResult plain = runLoopback(smallRun('b'), s1);

    net::KvService s2(smallService());
    YcsbConfig config = smallRun('b');
    config.pipelineDepth = 1;
    const YcsbResult depth1 = runLoopback(config, s2);

    EXPECT_EQ(depth1.of(OpClass::MGet).ops, 0u);
    for (std::size_t i = 0; i < plain.classes.size(); ++i)
        EXPECT_EQ(depth1.classes[i].ops, plain.classes[i].ops)
            << "class " << i;
    EXPECT_EQ(depth1.validationFailures, 0u);
}

TEST(Ycsb, DeleteRatioCarvesDeletes)
{
    net::KvService service(smallService());
    YcsbConfig config = smallRun('b');
    config.deleteRatio = 0.10;
    const YcsbResult r = runLoopback(config, service);
    EXPECT_GT(r.of(OpClass::Delete).ops, 0u);
    EXPECT_EQ(r.validationFailures, 0u);
    EXPECT_EQ(totalClassOps(r), r.runOps);
}

TEST(Ycsb, SameSeedGivesIdenticalOpSplits)
{
    net::KvService s1(smallService());
    net::KvService s2(smallService());
    const YcsbResult r1 = runLoopback(smallRun('a'), s1);
    const YcsbResult r2 = runLoopback(smallRun('a'), s2);
    for (unsigned c = 0; c < kNumOpClasses; ++c) {
        EXPECT_EQ(r1.classes[c].ops, r2.classes[c].ops)
            << opClassName(OpClass(c));
        EXPECT_EQ(r1.classes[c].failures, r2.classes[c].failures)
            << opClassName(OpClass(c));
    }
    EXPECT_EQ(r1.errors, r2.errors);
}

TEST(Ycsb, ShardLossScenarioSurfacesErrors)
{
    net::KvService service(smallService());
    YcsbConfig config = smallRun('b');
    config.scenario = Scenario::ShardLoss;
    config.scenarioAt = 0.25;
    config.deadShardMask = 1;
    const YcsbResult r = runLoopback(config, service);
    EXPECT_GT(r.errors, 0u) << "dead shard produced no errors";
    EXPECT_EQ(r.runOps,
              std::uint64_t(config.clients) * config.opsPerClient)
        << "clients must survive the scenario";
    EXPECT_EQ(r.validationFailures, 0u);
}

TEST(Ycsb, HotKeyStormStillValidates)
{
    net::KvService service(smallService());
    YcsbConfig config = smallRun('c');
    config.scenario = Scenario::HotKeyStorm;
    config.scenarioAt = 0.5;
    config.hotFraction = 0.8;
    const YcsbResult r = runLoopback(config, service);
    EXPECT_EQ(r.validationFailures, 0u);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(r.of(OpClass::Read).ops, r.runOps);
}

TEST(Ycsb, BackendSlowdownArmsTheLoaderStall)
{
    net::KvService service(smallService());
    YcsbConfig config = smallRun('c');
    config.opsPerClient = 200; // slow ops: keep the run tiny
    config.scenario = Scenario::BackendSlowdown;
    config.scenarioAt = 0.0; // armed from the first op
    config.slowdownUs = 200;
    const YcsbResult r = runLoopback(config, service);
    EXPECT_GT(service.fetchDelayUs(), 0u)
        << "scenario never armed the service knob";
    EXPECT_EQ(r.validationFailures, 0u);
    EXPECT_GT(r.readP99Ns(), 0.0);
}

TEST(Ycsb, TtlRunsLapseEntriesWithoutValidationFailures)
{
    net::KvService service(smallService());
    YcsbConfig config = smallRun('a');
    config.ttl = 2;
    config.clockEvery = 32;
    const YcsbResult r = runLoopback(config, service);
    EXPECT_EQ(r.validationFailures, 0u);
    EXPECT_GT(service.cache().clockNow(), 0u)
        << "driver never advanced the logical clock";
}

TEST(Ycsb, RegisterIntoEmitsTheStandardStats)
{
    net::KvService service(smallService());
    const YcsbResult r = runLoopback(smallRun('a'), service);
    StatRegistry reg;
    r.registerInto(reg);

    bool saw_ops_per_sec = false, saw_read_p99 = false,
         saw_update_ops = false;
    for (const StatEntry &e : reg.entries()) {
        if (e.name == "ops_per_sec")
            saw_ops_per_sec = true;
        if (e.name.find("read") != std::string::npos &&
            e.name.find("p99") != std::string::npos)
            saw_read_p99 = true;
        if (e.name.find("update") != std::string::npos &&
            e.name.find("ops") != std::string::npos)
            saw_update_ops = true;
    }
    EXPECT_TRUE(saw_ops_per_sec);
    EXPECT_TRUE(saw_read_p99);
    EXPECT_TRUE(saw_update_ops);
}

TEST(Ycsb, ConfigDescribeNamesTheWorkload)
{
    YcsbConfig config = smallRun('b');
    const std::string text = config.describe();
    EXPECT_NE(text.find('B'), std::string::npos);
    config.scenario = Scenario::BackendSlowdown;
    EXPECT_NE(config.describe().find("backend_slowdown"),
              std::string::npos);
}

} // namespace
