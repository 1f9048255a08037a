/**
 * @file
 * Cross-plane consistency of the counter tables
 * (obs/counter_table.hh): after a YCSB-A run over the loopback
 * transport into a 4-shard cache with TinyLFU admission, every row of
 * every table must read the same in each plane it appears on — the
 * v1 STATS text, the StatRegistry report, Stats v2 and the
 * Prometheus scrape — globally and per shard. Derived rows are also
 * checked against their formulas, and rows only one plane carries
 * against the cache itself.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/server.hh"
#include "net/service.hh"
#include "net/stats_v2.hh"
#include "obs/counter_table.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/stat_registry.hh"
#include "ycsb/ycsb.hh"

using namespace adcache;
using namespace adcache::net;

namespace
{

/** Every plane, read once the run is quiescent. Reads go around
 *  handle(), so reading does not move the request counters. */
struct Planes
{
    std::map<std::string, std::string> v1;
    StatRegistry registry;
    std::map<std::pair<unsigned, unsigned>, std::uint64_t> v2;
    std::map<std::string, double> prom; //!< "name{k=v,...}" -> value

    const std::string *
    v1Text(const std::string &name) const
    {
        const auto it = v1.find(name);
        return it == v1.end() ? nullptr : &it->second;
    }

    const std::uint64_t *
    wire(unsigned tag, unsigned shard) const
    {
        const auto it = v2.find({tag, shard});
        return it == v2.end() ? nullptr : &it->second;
    }

    const double *
    scraped(const std::string &key) const
    {
        const auto it = prom.find(key);
        return it == prom.end() ? nullptr : &it->second;
    }
};

std::string
promKey(const std::string &name, const obs::MetricLabels &labels)
{
    std::string key = name + "{";
    for (const auto &[k, v] : labels)
        key += k + "=" + v + ",";
    return key + "}";
}

Planes
readPlanes(KvService &service, obs::MetricsRegistry &metrics)
{
    Planes p;
    std::istringstream text(service.statsText());
    std::string line;
    while (std::getline(text, line)) {
        const std::size_t space = line.find(' ');
        p.v1[line.substr(0, space)] = line.substr(space + 1);
    }
    service.cache().registerStats(p.registry, "kv.", true);
    std::uint16_t shards = 0;
    std::vector<StatSample> samples;
    EXPECT_TRUE(decodeStatsV2(service.statsV2(), &shards, &samples));
    for (const StatSample &s : samples)
        p.v2[{unsigned(s.tag), s.shard}] = s.value;
    for (const obs::MetricSample &s : metrics.scrape().samples)
        p.prom[promKey(s.name, s.labels)] = s.value;
    return p;
}

/** What one plane-set must agree on for one sample of one row. */
class RowCheck
{
  public:
    explicit RowCheck(std::string what) : what_(std::move(what)) {}

    void
    note(const char *plane, double v)
    {
        if (!seen_.empty()) {
            EXPECT_EQ(v, seen_.front().second)
                << what_ << ": " << plane << " disagrees with "
                << seen_.front().first;
        }
        seen_.emplace_back(plane, v);
    }

    double value() const { return seen_.front().second; }

  private:
    std::string what_;
    std::vector<std::pair<const char *, double>> seen_;
};

/**
 * Check every sample of @p rows: the global one and one per each of
 * @p shards instances, whose Prometheus samples carry label
 * @p label="N" and whose v1 names live under "<v1_prefix>shardNN.".
 * With @p sparse, zero per-instance samples are absent from Stats v2.
 */
void
checkRows(std::span<const obs::CounterRow> rows, const Planes &p,
          const std::string &v1_prefix, unsigned shards,
          const char *label, bool sparse,
          const std::vector<std::string> &components)
{
    for (const obs::CounterRow &row : rows) {
        const unsigned instances =
            row.scope == obs::CounterScope::Global ? 0 : shards;
        for (unsigned inst = 0; inst <= instances; ++inst) {
            const bool global = inst == instances;
            if (global && row.scope == obs::CounterScope::ShardOnly)
                continue;
            const unsigned shard = global ? kStatsGlobalShard : inst;
            char sub[16] = "";
            if (!global)
                std::snprintf(sub, sizeof sub, "shard%02u.", inst);
            const std::size_t reps =
                row.perComponent ? components.size() : 1;
            for (std::size_t k = 0; k < reps; ++k) {
                std::string v1 = row.v1 ? row.v1 : "";
                if (row.perComponent)
                    v1.replace(v1.find("%s"), 2, components[k]);
                const std::string v1_name = v1_prefix + sub + v1;
                RowCheck check(std::string(row.tagName ? row.tagName
                                                       : v1.c_str()) +
                               " shard " + std::to_string(shard));
                const StatEntry *entry =
                    row.v1 ? p.registry.find(v1_name) : nullptr;
                const std::string *text =
                    row.v1 ? p.v1Text(v1_name) : nullptr;
                if (entry != nullptr) {
                    check.note("StatRegistry", entry->numeric());
                    ASSERT_NE(text, nullptr) << v1_name;
                    std::ostringstream printed;
                    if (entry->kind == StatEntry::Kind::Value)
                        printed << entry->value;
                    else
                        printed << entry->counter;
                    EXPECT_EQ(*text, printed.str()) << v1_name;
                } else if (text != nullptr) {
                    check.note("v1", std::stod(*text));
                } else if (row.v1 != nullptr && !row.v1IfAdmission) {
                    ADD_FAILURE() << "v1 row missing: " << v1_name;
                }
                if (row.tag != 0) {
                    const std::uint64_t *w = p.wire(row.tag, shard);
                    if (w == nullptr && sparse && !global)
                        check.note("Stats v2 (elided zero)", 0.0);
                    else if (w == nullptr)
                        ADD_FAILURE() << "v2 sample missing: tag "
                                      << row.tag << " shard " << shard;
                    else if (std::string(row.tagName) == "hit_rate_ppm")
                        EXPECT_EQ(*w, std::uint64_t(check.value() * 1e6))
                            << "hit_rate_ppm shard " << shard;
                    else
                        check.note("Stats v2", double(*w));
                }
                const obs::CounterFamily &f =
                    global ? row.prom : row.shardProm;
                if (f.name != nullptr) {
                    obs::MetricLabels labels;
                    if (f.labelKey != nullptr)
                        labels.emplace_back(f.labelKey, f.labelValue);
                    if (!global)
                        labels.emplace_back(label, std::to_string(inst));
                    const double *v =
                        p.scraped(promKey(f.name, labels));
                    if (v == nullptr)
                        ADD_FAILURE() << "Prometheus sample missing: "
                                      << promKey(f.name, labels);
                    else
                        check.note("Prometheus", *v);
                }
            }
        }
    }
}

double
v1(const Planes &p, const std::string &name)
{
    return p.registry.numeric(name);
}

} // namespace

TEST(CounterPlanes, EveryRowAgreesAfterYcsbA)
{
    KvServiceConfig config;
    config.cache.capacity = 4096;
    config.cache.numShards = 4;
    config.cache.numBuckets = 128;
    config.cache.components[kv::kvComponentLru].admission = true;
    KvService service(config);
    KvServer server(service, KvServerConfig{});
    server.installStatsProvider();
    obs::MetricsRegistry metrics;
    service.registerMetrics(metrics);
    server.registerMetrics(metrics);
    obs::registerTraceMetrics(metrics);

    ycsb::YcsbConfig yc;
    yc.workload = 'a';
    yc.records = 50'000;
    yc.loadRecords = 4'000;
    yc.opsPerClient = 10'000;
    yc.clients = 2;
    // Reads as 4-key MGets: non-filling probes (gets, get_hits) next to
    // the read-through fills, so the probe rows are not all zero.
    yc.pipelineDepth = 4;
    ycsb::YcsbDriver driver(yc, &service, [&](unsigned) {
        return ycsb::makeLoopbackConnection(service);
    });
    const ycsb::YcsbResult result = driver.run();
    ASSERT_GT(result.runOps, 0u);

    const Planes p = readPlanes(service, metrics);
    const unsigned shards = service.cache().numShards();
    std::vector<std::string> components;
    for (const kv::KvComponentSpec &c : config.cache.components)
        components.push_back(kv::kvComponentName(c));

    checkRows(obs::kKvCounterRows, p, "kv.", shards, "shard", false,
              components);
    checkRows(obs::kServiceCounterRows, p, "", 0, "", false, {});
    checkRows(obs::kTransportCounterRows, p, "", 0, "", false, {});
    const std::size_t rings = obs::perRingDrops().size();
    checkRows(obs::kTraceCounterRows, p, "", unsigned(rings), "ring",
              true, {});

    // The run really moved the counters the checks compare.
    EXPECT_GT(v1(p, "kv.evictions"), 0.0);
    EXPECT_GT(v1(p, "kv.admit_rejects"), 0.0);
    EXPECT_GT(v1(p, "kv.diff_misses"), 0.0);
    EXPECT_GT(v1(p, "kv.gets"), v1(p, "kv.get_hits"));
    EXPECT_GT(v1(p, "kv.get_hits"), 0.0);
    EXPECT_EQ(p.v1.at("net.requests"),
              std::to_string(service.requestsServed()));

    // Derived rows against their formulas, globally and per shard.
    for (unsigned s = 0; s <= shards; ++s) {
        const bool global = s == shards;
        const unsigned shard = global ? kStatsGlobalShard : s;
        char sub[16] = "";
        if (!global)
            std::snprintf(sub, sizeof sub, "shard%02u.", s);
        const std::string at = std::string("kv.") + sub;
        const double hits = v1(p, at + "hits");
        const double misses = v1(p, at + "misses");
        const double gets = v1(p, at + "gets");
        const double get_hits = v1(p, at + "get_hits");
        const double refs = v1(p, at + "references");
        EXPECT_LE(get_hits, gets) << at;
        EXPECT_EQ(double(p.v2.at({unsigned(StatTag::Hits), shard})),
                  hits + get_hits)
            << at;
        EXPECT_EQ(double(p.v2.at({unsigned(StatTag::Misses), shard})),
                  misses + (gets - get_hits))
            << at;
        EXPECT_EQ(v1(p, at + "hit_rate"),
                  (hits + get_hits) / (refs + gets))
            << at;
    }

    // Rows only Stats v2 carries, against the cache itself.
    EXPECT_EQ(p.v2.at({unsigned(StatTag::ShardCount), kStatsGlobalShard}),
              shards);
    EXPECT_EQ(p.v2.at({unsigned(StatTag::ClockNow), kStatsGlobalShard}),
              service.cache().clockNow());
}
