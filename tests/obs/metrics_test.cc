/**
 * @file
 * MetricsRegistry tests: handle semantics (counters, gauges,
 * histograms, label sets), scrape-time collectors, the Prometheus
 * text exposition (family ordering, HELP/TYPE announcement, label
 * escaping, bucket cumulativity), and the concurrency contract —
 * any number of threads incrementing through handles while another
 * thread scrapes (the TSan tier of the obstel label).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/loopback.hh"
#include "net/service.hh"
#include "obs/metrics.hh"
#include "obs/pump.hh"
#include "obs/trace.hh"
#include "ycsb/ycsb.hh"

using namespace adcache::obs;
namespace net = adcache::net;
namespace ycsb = adcache::ycsb;

namespace
{

const MetricSample *
find(const MetricsSnapshot &snap, const std::string &name,
     const MetricLabels &labels = {})
{
    for (const MetricSample &s : snap.samples)
        if (s.name == name && s.labels == labels)
            return &s;
    return nullptr;
}


/**
 * Assert the exposition format's grouping rule: every line of a
 * family (its HELP, TYPE and samples, histogram _bucket/_sum/_count
 * included) sits in one contiguous block, HELP/TYPE announced once
 * at its head.
 */
void
expectFamiliesContiguous(const std::string &text)
{
    std::vector<std::string> closed; // families whose block ended
    std::vector<std::string> typed, histograms;
    std::string current;
    auto enter = [&](const std::string &family, const std::string &l) {
        if (family == current)
            return;
        EXPECT_EQ(std::count(closed.begin(), closed.end(), family), 0)
            << "family " << family << " reopened at: " << l << "\n"
            << text;
        if (!current.empty())
            closed.push_back(current);
        current = family;
    };
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("# ", 0) == 0) {
            std::istringstream words(line.substr(2));
            std::string keyword, family, type;
            words >> keyword >> family >> type;
            if (keyword == "TYPE") {
                EXPECT_EQ(std::count(typed.begin(), typed.end(), family),
                          0)
                    << "TYPE twice for " << family << "\n"
                    << text;
                typed.push_back(family);
                if (type == "histogram")
                    histograms.push_back(family);
            }
            enter(family, line);
            continue;
        }
        std::string name = line.substr(0, line.find_first_of("{ "));
        for (const char *suffix : {"_bucket", "_sum", "_count"}) {
            const std::string base =
                name.substr(0, name.size() - std::strlen(suffix));
            if (name.size() > std::strlen(suffix) &&
                name.compare(base.size(), std::string::npos, suffix) ==
                    0 &&
                std::count(histograms.begin(), histograms.end(), base))
                name = base;
        }
        enter(name, line);
    }
}

} // namespace

TEST(Metrics, CounterAccumulatesAcrossHandlesAndThreads)
{
    MetricsRegistry reg;
    Counter c = reg.counter("requests_total", "Requests");
    c.inc();
    c.inc(4);

    // Re-registering the same (name, labels) yields the same family.
    Counter same = reg.counter("requests_total", "Requests");
    same.inc(5);

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&c] {
            for (int i = 0; i < 1000; ++i)
                c.inc();
        });
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(c.value(), 10u + 4000u);
    const MetricsSnapshot snap = reg.scrape();
    const MetricSample *s = find(snap, "requests_total");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->value, 4010.0);
}

TEST(Metrics, DefaultConstructedHandlesAreInert)
{
    Counter c;
    Gauge g;
    HistogramHandle h;
    EXPECT_FALSE(c.attached());
    c.inc();
    g.set(5);
    h.observe(100);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0.0);
}

TEST(Metrics, LabelSetsAreDistinctFamilies)
{
    MetricsRegistry reg;
    Counter a = reg.counter("ops_total", "Ops", {{"op", "get"}});
    Counter b = reg.counter("ops_total", "Ops", {{"op", "put"}});
    a.inc(3);
    b.inc(7);

    const MetricsSnapshot snap = reg.scrape();
    const MetricSample *ga = find(snap, "ops_total", {{"op", "get"}});
    const MetricSample *gb = find(snap, "ops_total", {{"op", "put"}});
    ASSERT_NE(ga, nullptr);
    ASSERT_NE(gb, nullptr);
    EXPECT_EQ(ga->value, 3.0);
    EXPECT_EQ(gb->value, 7.0);
}

TEST(Metrics, GaugeIsLastWriterWins)
{
    MetricsRegistry reg;
    Gauge g = reg.gauge("temperature", "Now");
    g.set(1.5);
    g.set(-3.25);
    EXPECT_EQ(g.value(), -3.25);
    const MetricsSnapshot snap = reg.scrape();
    const MetricSample *s = find(snap, "temperature");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->value, -3.25);
}

TEST(Metrics, HistogramBucketsCountAndSum)
{
    MetricsRegistry reg;
    HistogramHandle h = reg.histogram("lat_ns", "Latency");
    // 1st bucket boundary is 2^kHistLoBit; observe below, inside,
    // and beyond the top boundary (+Inf bucket).
    h.observe(1);                   // bucket 0
    h.observe(1ull << kHistLoBit);  // bucket 0 (le is inclusive)
    h.observe((1ull << kHistLoBit) + 1); // bucket 1
    h.observe(1ull << (kHistHiBit + 2)); // +Inf

    const MetricsSnapshot snap = reg.scrape();
    const MetricSample *s = find(snap, "lat_ns");
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->buckets.size(), std::size_t(kHistBuckets) + 1);
    EXPECT_EQ(s->buckets[0], 2u);
    EXPECT_EQ(s->buckets[1], 1u);
    EXPECT_EQ(s->buckets[kHistBuckets], 1u); // +Inf
    EXPECT_EQ(s->count, 4u);
    EXPECT_EQ(s->sum, double(1 + (1ull << kHistLoBit) +
                             ((1ull << kHistLoBit) + 1) +
                             (1ull << (kHistHiBit + 2))));

    // Percentile estimate returns a bucket upper edge.
    EXPECT_GE(h.snapshot().percentileNs(0.5),
              double(1ull << kHistLoBit));
}

TEST(Metrics, CollectorsRunAtScrapeTime)
{
    MetricsRegistry reg;
    int calls = 0;
    reg.addCollector([&calls](MetricsSink &sink) {
        ++calls;
        sink.counter("sampled_total", {}, 42.0, "Sampled");
        sink.gauge("sampled_now", {{"k", "v"}}, 7.0);
    });

    const MetricsSnapshot snap = reg.scrape();
    EXPECT_EQ(calls, 1);
    const MetricSample *c = find(snap, "sampled_total");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value, 42.0);
    EXPECT_EQ(c->kind, MetricKind::Counter);
    const MetricSample *g =
        find(snap, "sampled_now", {{"k", "v"}});
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->kind, MetricKind::Gauge);
}

TEST(Metrics, PrometheusExpositionGolden)
{
    MetricsRegistry reg;
    reg.counter("a_total", "First counter").inc(3);
    reg.gauge("b_now", "A gauge", {{"shard", "0"}}).set(1.5);
    reg.counter("a_total", "First counter", {{"op", "get"}}).inc();

    const std::string text = renderPrometheus(reg.scrape());
    const std::string expect =
        "# HELP a_total First counter\n"
        "# TYPE a_total counter\n"
        "a_total 3\n"
        "a_total{op=\"get\"} 1\n"
        "# HELP b_now A gauge\n"
        "# TYPE b_now gauge\n"
        "b_now{shard=\"0\"} 1.5\n";
    EXPECT_EQ(text, expect);
}

TEST(Metrics, PrometheusEscapesLabelValues)
{
    MetricsRegistry reg;
    reg.counter("esc_total", "Escapes",
                {{"path", "a\\b\"c\nd"}})
        .inc();
    const std::string text = renderPrometheus(reg.scrape());
    EXPECT_NE(
        text.find("esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
        std::string::npos)
        << text;
}

TEST(Metrics, PrometheusHistogramBucketsAreCumulative)
{
    MetricsRegistry reg;
    HistogramHandle h = reg.histogram("h_ns", "H");
    h.observe(1);                        // first bucket
    h.observe((1ull << kHistLoBit) + 1); // second bucket
    h.observe(1ull << (kHistHiBit + 2)); // +Inf

    const std::string text = renderPrometheus(reg.scrape());
    // le="1024" sees 1, le="2048" sees 2 (cumulative), +Inf sees 3.
    EXPECT_NE(text.find("h_ns_bucket{le=\"1024\"} 1\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("h_ns_bucket{le=\"2048\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("h_ns_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("h_ns_count 3\n"), std::string::npos);
    EXPECT_NE(text.find("h_ns_sum"), std::string::npos);
}

TEST(Metrics, PrometheusHistogramGolden)
{
    // Samples on, just past and between the le edges, on the top
    // edge, one octave past it and far past it: the exposition text
    // of one histogram family, byte for byte.
    MetricsRegistry reg;
    HistogramHandle h =
        reg.histogram("req_ns", "Request latency", {{"op", "get"}});
    for (const std::uint64_t ns :
         {std::uint64_t(0), std::uint64_t(1024), std::uint64_t(1025),
          std::uint64_t(3000), std::uint64_t(1) << 30,
          std::uint64_t(1) << 31, std::uint64_t(1) << 40})
        h.observe(ns);

    const std::string expect =
        "# HELP req_ns Request latency\n"
        "# TYPE req_ns histogram\n"
        "req_ns_bucket{op=\"get\",le=\"1024\"} 2\n"
        "req_ns_bucket{op=\"get\",le=\"2048\"} 3\n"
        "req_ns_bucket{op=\"get\",le=\"4096\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"8192\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"16384\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"32768\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"65536\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"131072\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"262144\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"524288\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"1048576\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"2097152\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"4194304\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"8388608\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"16777216\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"33554432\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"67108864\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"134217728\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"268435456\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"536870912\"} 4\n"
        "req_ns_bucket{op=\"get\",le=\"1073741824\"} 5\n"
        "req_ns_bucket{op=\"get\",le=\"+Inf\"} 7\n"
        "req_ns_sum{op=\"get\"} 1102732858297\n"
        "req_ns_count{op=\"get\"} 7\n";
    EXPECT_EQ(renderPrometheus(reg.scrape()), expect);
}

TEST(Metrics, ScrapeUnderConcurrentIncrementIsConsistent)
{
    MetricsRegistry reg;
    Counter c = reg.counter("torn_total", "Torn reads check");
    HistogramHandle h = reg.histogram("torn_ns", "Torn histogram");
    std::atomic<bool> stop{false};

    std::vector<std::thread> writers;
    for (int t = 0; t < 3; ++t)
        writers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                c.inc();
                h.observe(2000);
            }
        });

    std::uint64_t last = 0;
    for (int i = 0; i < 50; ++i) {
        const MetricsSnapshot snap = reg.scrape();
        const MetricSample *s = find(snap, "torn_total");
        ASSERT_NE(s, nullptr);
        // Monotone under concurrent increments: no torn/shrinking
        // reads across scrapes.
        EXPECT_GE(std::uint64_t(s->value), last);
        last = std::uint64_t(s->value);
        const MetricSample *hs = find(snap, "torn_ns");
        ASSERT_NE(hs, nullptr);
        std::uint64_t bucketTotal = 0;
        for (const std::uint64_t b : hs->buckets)
            bucketTotal += b;
        EXPECT_EQ(bucketTotal, hs->count);
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : writers)
        t.join();

    const MetricsSnapshot final_snap = reg.scrape();
    const MetricSample *s = find(final_snap, "torn_total");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(std::uint64_t(s->value), c.value());
}

TEST(Metrics, ThreadShardsOutliveTheirThreads)
{
    MetricsRegistry reg;
    Counter c = reg.counter("ghost_total", "From dead threads");
    std::thread([&c] { c.inc(11); }).join();
    std::thread([&c] { c.inc(31); }).join();
    EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, TwoRegistriesDoNotAlias)
{
    auto first = std::make_unique<MetricsRegistry>();
    Counter a = first->counter("x_total", "X");
    a.inc(5);
    first.reset(); // TLS entries for it become stale

    MetricsRegistry second;
    Counter b = second.counter("x_total", "X");
    b.inc(2);
    EXPECT_EQ(b.value(), 2u);
}

TEST(Metrics, KindMismatchAsserts)
{
    MetricsRegistry reg;
    reg.counter("dual", "As counter");
    EXPECT_DEATH((void)reg.gauge("dual", "As gauge"), "");
}

TEST(Metrics, TraceMetricsReportRingStateAndDrops)
{
    MetricsRegistry reg;
    registerTraceMetrics(reg);
    const MetricsSnapshot snap = reg.scrape();
    const MetricSample *compiled =
        find(snap, "adcache_trace_compiled");
    ASSERT_NE(compiled, nullptr);
    EXPECT_EQ(compiled->value, kTraceCompiled ? 1.0 : 0.0);
    ASSERT_NE(find(snap, "adcache_trace_enabled"), nullptr);
    // Per-ring drop counters appear once rings exist; the registry
    // call itself must not require any.
    for (const MetricSample &s : snap.samples)
        if (s.name == "adcache_trace_dropped_total")
            EXPECT_EQ(s.labels.at(0).first, "ring");
}

TEST(Metrics, PrometheusGroupsInterleavedFamilies)
{
    // Per-shard gauges registered lazily, shard by shard, interleave
    // two families in registration order; a collector interleaves
    // two more. Each family must still render as one block.
    MetricsRegistry reg;
    for (int s = 0; s < 2; ++s) {
        const MetricLabels labels = {{"shard", std::to_string(s)}};
        reg.gauge("flip_ewma", "Flip EWMA", labels).set(s);
        reg.gauge("miss_ewma", "Miss EWMA", labels).set(10 + s);
    }
    reg.addCollector([](MetricsSink &sink) {
        for (int s = 0; s < 2; ++s) {
            const MetricLabels labels = {{"shard", std::to_string(s)}};
            sink.counter("hits_total", labels, 100 + s, "Hits");
            sink.gauge("winner", labels, s, "Winner");
        }
    });
    HistogramHandle h = reg.histogram("lat_ns", "Latency");
    reg.counter("hits_total", "Hits", {{"shard", "9"}}).inc(7);
    h.observe(1);

    const std::string text = renderPrometheus(reg.scrape());
    expectFamiliesContiguous(text);
    const std::string expect_head =
        "# HELP flip_ewma Flip EWMA\n"
        "# TYPE flip_ewma gauge\n"
        "flip_ewma{shard=\"0\"} 0\n"
        "flip_ewma{shard=\"1\"} 1\n"
        "# HELP miss_ewma Miss EWMA\n"
        "# TYPE miss_ewma gauge\n"
        "miss_ewma{shard=\"0\"} 10\n"
        "miss_ewma{shard=\"1\"} 11\n"
        "# HELP lat_ns Latency\n"
        "# TYPE lat_ns histogram\n";
    EXPECT_EQ(text.substr(0, expect_head.size()), expect_head) << text;
    const std::string expect_hits =
        "# HELP hits_total Hits\n"
        "# TYPE hits_total counter\n"
        "hits_total{shard=\"9\"} 7\n"
        "hits_total{shard=\"0\"} 100\n"
        "hits_total{shard=\"1\"} 101\n"
        "# HELP winner Winner\n";
    EXPECT_NE(text.find(expect_hits), std::string::npos) << text;
}

TEST(Metrics, PrometheusGroupsAServedCacheScrape)
{
    // The kv_server registry shape: a 2-shard service (per-shard
    // cache rows), the drift pump's lazily registered per-shard
    // gauges, and the trace plane.
    net::KvServiceConfig config;
    config.cache.capacity = 256;
    config.cache.numShards = 2;
    config.cache.numBuckets = 16;
    net::KvService service(config);
    MetricsRegistry reg;
    service.registerMetrics(reg);
    registerTraceMetrics(reg);
    TelemetryPumpConfig pump_config;
    pump_config.metrics = &reg;
    pump_config.logSink = [](const std::string &) {};
    pump_config.driftSampler = [&service] {
        std::vector<DriftShardSample> out;
        for (const auto &t : service.cache().shardTelemetry())
            out.push_back({t.selectionFlips, t.diffMisses, t.ops()});
        return out;
    };
    TelemetryPump pump(pump_config);
    {
        net::LoopbackConnection conn(service);
        for (std::uint64_t k = 0; k < 512; ++k) {
            conn.put(k, "v");
            conn.get(k / 3);
        }
    }
    pump.tickOnce();

    const std::string text = renderPrometheus(reg.scrape());
    expectFamiliesContiguous(text);
    EXPECT_NE(text.find("adcache_kv_shard_hits_total{shard=\"1\"}"),
              std::string::npos);
    EXPECT_NE(text.find("adcache_kv_drift_flip_ewma{shard=\"1\"}"),
              std::string::npos);
}

TEST(Metrics, YcsbLatencyFamilyIsTheRunsHistograms)
{
    // ycsb_op_latency_ns{op=} exposes the histograms the clients
    // record into, once per op: a scrape after the run matches the
    // result exactly, and a second run on the registry replaces them.
    net::KvServiceConfig config;
    config.cache.capacity = 1024;
    config.cache.numShards = 2;
    config.cache.numBuckets = 64;
    net::KvService service(config);
    MetricsRegistry reg;
    ycsb::YcsbConfig yc;
    yc.workload = 'a';
    yc.records = 4096;
    yc.clients = 2;
    yc.metrics = &reg;
    for (const std::uint64_t ops : {600u, 400u}) {
        yc.opsPerClient = ops;
        ycsb::YcsbDriver driver(yc, &service, [&](unsigned) {
            return ycsb::makeLoopbackConnection(service);
        });
        const ycsb::YcsbResult r = driver.run();
        const MetricsSnapshot snap = reg.scrape();
        std::uint64_t samples = 0;
        for (unsigned c = 0; c < ycsb::kNumOpClasses; ++c) {
            const LatencySnapshot &lat = r.classes[c].latency;
            const MetricSample *s =
                find(snap, "ycsb_op_latency_ns",
                     {{"op", ycsb::opClassName(ycsb::OpClass(c))}});
            ASSERT_NE(s, nullptr);
            EXPECT_EQ(s->count, lat.count());
            EXPECT_EQ(s->sum, double(lat.sumNs()));
            EXPECT_EQ(lat.count(), r.classes[c].ops);
            samples += lat.count();
        }
        EXPECT_EQ(samples, yc.clients * ops);
    }
}
