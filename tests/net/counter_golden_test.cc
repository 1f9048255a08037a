/**
 * @file
 * Counter-export goldens: what the served cache's four telemetry
 * planes emit for a fixed, single-threaded scenario, pinned against
 * files under tests/data/counter_goldens/.
 *
 *  - StatRegistry: AdaptiveKvCache::registerStats entries, in order,
 *    with and without per-shard entries;
 *  - v1 text: KvService::statsText() past its run.* metadata lines;
 *  - Prometheus: the scrape of a kv_server-shaped registry (service,
 *    cache, transport, trace plane) as a sorted multiset of
 *    (name, labels, type, help, value);
 *  - Stats v2: KvService::statsV2() as a sorted multiset of
 *    (tag, shard, value);
 *  - every StatTag number with its statTagName;
 *  - the TelemetryPump's adcache_kv_drift_* samples, ticked at fixed
 *    points of the scenario.
 *
 * The scenario runs twice: with the default components and with
 * TinyLFU admission on the LRU component (the usual winner, so the
 * filter really refuses candidates). Values that depend on
 * timing or on the build (request latency percentiles, trace-plane
 * state) are masked as "*"; per-ring trace drop rows are dropped.
 * A mismatch prints a unified diff of the canonical text.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "net/loopback.hh"
#include "net/server.hh"
#include "net/service.hh"
#include "net/stats_v2.hh"
#include "obs/metrics.hh"
#include "obs/pump.hh"
#include "util/stat_registry.hh"

using namespace adcache;
using namespace adcache::net;

namespace
{

KvServiceConfig
scenarioConfig(bool admission)
{
    KvServiceConfig c;
    c.cache.capacity = 96;
    c.cache.numShards = 2;
    c.cache.numBuckets = 16;
    c.cache.leaderEvery = 2;
    if (admission)
        c.cache.components[kv::kvComponentLru].admission = true;
    c.loaderTtl = 40;
    return c;
}

/** A fixed mix of every request kind, with TTL expiry, a dead-shard
 *  window and both filling and non-filling reads; @p tick, when
 *  given, runs after every 500th request. */
void
drive(KvService &service, const std::function<void()> &tick = {})
{
    LoopbackConnection conn(service);
    std::uint64_t x = 12345;
    for (unsigned i = 0; i < 4000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t r = x >> 33;
        const std::uint64_t key = r % 7 == 0 ? r % 400 : r % 48;
        if (i % 16 == 0)
            service.cache().clockAdvance();
        service.setDeadShardMask(i >= 3000 && i < 3100 ? 1 : 0);
        switch (r % 10) {
          case 0:
          case 1:
            conn.put(key, "v", i % 3 == 0 ? 30 : 0);
            break;
          case 2:
            conn.del(key);
            break;
          case 3:
            conn.mget({key, key + 1, key + 2});
            break;
          default:
            conn.get(key);
            break;
        }
        if (tick && i % 500 == 499)
            tick();
    }
    conn.ping();
}

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
canonicalRegistry(const StatRegistry &reg)
{
    std::string out;
    for (const StatEntry &e : reg.entries()) {
        out += e.name;
        switch (e.kind) {
          case StatEntry::Kind::Counter:
            out += " counter " + std::to_string(e.counter);
            break;
          case StatEntry::Kind::Value:
            out += " value " + fmtDouble(e.value);
            break;
          case StatEntry::Kind::Text:
            out += " text " + e.text;
            break;
        }
        out += '\n';
    }
    return out;
}

/** The v1 text past its leading run.* (build/time) lines. */
std::string
v1Payload(const std::string &text)
{
    std::istringstream in(text);
    std::string line, out;
    while (std::getline(in, line))
        if (line.rfind("run.", 0) != 0)
            out += line + '\n';
    return out;
}

bool
isTimingOrBuildMetric(const std::string &name)
{
    return name.rfind("adcache_trace_", 0) == 0 ||
           name == "adcache_net_request_p50_ns" ||
           name == "adcache_net_request_p99_ns";
}

std::string
canonicalScrape(const obs::MetricsSnapshot &snap)
{
    std::vector<std::string> lines;
    std::set<std::string> masked;
    for (const obs::MetricSample &s : snap.samples) {
        std::string labels;
        for (const auto &[k, v] : s.labels)
            labels += (labels.empty() ? "" : ",") + k + "=" + v;
        const std::string head = s.name + "|";
        const std::string tail = std::string("|") +
                                 obs::metricKindName(s.kind) + "|" +
                                 s.help + "|";
        if (s.name == "adcache_trace_dropped_total")
            masked.insert(head + "*" + tail + "*");
        else if (isTimingOrBuildMetric(s.name))
            lines.push_back(head + labels + tail + "*");
        else
            lines.push_back(head + labels + tail + fmtDouble(s.value));
    }
    lines.insert(lines.end(), masked.begin(), masked.end());
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string &l : lines)
        out += l + '\n';
    return out;
}

std::string
canonicalV2(const std::string &blob)
{
    std::uint16_t shards = 0;
    std::vector<StatSample> samples;
    EXPECT_TRUE(decodeStatsV2(blob, &shards, &samples));
    std::vector<std::string> lines;
    for (const StatSample &s : samples) {
        const unsigned tag = unsigned(s.tag);
        if (tag == 56 || tag == 57) // RequestP50Ns / RequestP99Ns
            continue;
        const bool trace = tag >= 80 && tag <= 82;
        if (trace && s.shard != kStatsGlobalShard)
            continue; // per-ring drops: process state, not a counter
        char buf[64];
        std::snprintf(buf, sizeof buf, "%u %u ", tag,
                      unsigned(s.shard));
        lines.push_back(buf + (trace ? std::string("*")
                                     : std::to_string(s.value)));
    }
    std::sort(lines.begin(), lines.end());
    std::string out = "shard_count " + std::to_string(shards) + "\n";
    for (const std::string &l : lines)
        out += l + '\n';
    return out;
}

/** Compare @p actual with the golden file @p name. */
void
expectGolden(const std::string &actual, const std::string &name)
{
    std::ifstream in(std::string(ADCACHE_COUNTER_GOLDEN_DIR) + "/" +
                     name);
    ASSERT_TRUE(in.good()) << "missing golden " << name;
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(actual, golden.str()) << "golden " << name;
}

/** Every plane of one scenario, rendered canonically. */
struct Planes
{
    std::string registryPerShard;
    std::string registryAggregate;
    std::string v1;
    std::string prometheus;
    std::string v2;
};

Planes
capture(bool admission)
{
    KvService service(scenarioConfig(admission));
    KvServer server(service, KvServerConfig{});
    server.installStatsProvider();
    obs::MetricsRegistry metrics;
    service.registerMetrics(metrics);
    server.registerMetrics(metrics);
    obs::registerTraceMetrics(metrics);

    drive(service);

    Planes p;
    StatRegistry per_shard, aggregate;
    service.cache().registerStats(per_shard, "kv.", true);
    service.cache().registerStats(aggregate, "kv.", false);
    p.registryPerShard = canonicalRegistry(per_shard);
    p.registryAggregate = canonicalRegistry(aggregate);
    p.v1 = v1Payload(service.statsText());
    p.prometheus = canonicalScrape(metrics.scrape());
    p.v2 = canonicalV2(service.statsV2());
    return p;
}

void
expectPlanes(bool admission)
{
    const std::string tag = admission ? "admission" : "defaults";
    const Planes p = capture(admission);
    expectGolden(p.registryPerShard, tag + "_registry_per_shard.txt");
    expectGolden(p.registryAggregate,
                 tag + "_registry_aggregate.txt");
    expectGolden(p.v1, tag + "_v1.txt");
    expectGolden(p.prometheus, tag + "_prometheus.txt");
    expectGolden(p.v2, tag + "_v2.txt");
}

} // namespace

TEST(CounterGoldens, DefaultComponentsEveryPlane)
{
    expectPlanes(false);
}

TEST(CounterGoldens, AdmissionComponentEveryPlane)
{
    expectPlanes(true);
}

TEST(CounterGoldens, DriftFamilies)
{
    KvService service(scenarioConfig(false));
    obs::MetricsRegistry metrics;
    obs::TelemetryPumpConfig config;
    config.logSink = [](const std::string &) {};
    config.driftSampler = [&service] {
        std::vector<obs::DriftShardSample> out;
        for (const kv::KvShardStats &t : service.cache().shardTelemetry())
            out.push_back({t.selectionFlips, t.diffMisses, t.ops()});
        return out;
    };
    obs::TelemetryPump pump(std::move(config));
    pump.registerMetrics(metrics);

    drive(service, [&pump] { pump.tickOnce(); });
    pump.tickOnce(); // an idle period leaves the EWMAs as they were

    std::istringstream scrape(canonicalScrape(metrics.scrape()));
    std::string line, drift;
    while (std::getline(scrape, line))
        if (line.rfind("adcache_kv_drift_", 0) == 0)
            drift += line + '\n';
    expectGolden(drift, "drift_prometheus.txt");
}

TEST(CounterGoldens, StatTagNumbersAndNames)
{
    std::string out;
    for (unsigned tag = 0; tag <= 0xFFFF; ++tag) {
        const char *name = statTagName(StatTag(tag));
        if (std::string(name) != "?")
            out += std::to_string(tag) + " " + name + "\n";
    }
    expectGolden(out, "stat_tags.txt");
}
