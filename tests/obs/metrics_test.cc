/**
 * @file
 * MetricsRegistry tests: scrape-time collectors, the Prometheus text
 * exposition (family ordering, HELP/TYPE announcement, label
 * escaping) of a synthetic and of a served-cache registry, and the
 * concurrency contract — a served cache's registry scraped while
 * clients run (the TSan tier of the obstel label). A YCSB run's
 * latency histograms are checked against the requests its service
 * counted.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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
 * family (its HELP, TYPE and samples) sits in one contiguous block,
 * HELP/TYPE announced once at its head.
 */
void
expectFamiliesContiguous(const std::string &text)
{
    std::vector<std::string> closed; // families whose block ended
    std::vector<std::string> typed;
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
            std::string keyword, family;
            words >> keyword >> family;
            if (keyword == "TYPE") {
                EXPECT_EQ(std::count(typed.begin(), typed.end(), family),
                          0)
                    << "TYPE twice for " << family << "\n"
                    << text;
                typed.push_back(family);
            }
            enter(family, line);
            continue;
        }
        enter(line.substr(0, line.find_first_of("{ ")), line);
    }
}

} // namespace

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
    reg.addCollector([](MetricsSink &sink) {
        sink.counter("a_total", {}, 3, "First counter");
        sink.gauge("b_now", {{"shard", "0"}}, 1.5, "A gauge");
        sink.counter("a_total", {{"op", "get"}}, 1, "First counter");
    });

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
    reg.addCollector([](MetricsSink &sink) {
        sink.counter("esc_total", {{"path", "a\\b\"c\nd"}}, 1, "Escapes");
    });
    const std::string text = renderPrometheus(reg.scrape());
    EXPECT_NE(
        text.find("esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
        std::string::npos)
        << text;
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
    // Collectors looping shards interleave families in scrape order,
    // and a later collector adds to a family an earlier one opened.
    // Each family must still render as one block.
    MetricsRegistry reg;
    for (const auto &[a, b] : {std::pair{"flip_ewma", "miss_ewma"},
                               std::pair{"hits_total", "winner"}})
        reg.addCollector([a, b](MetricsSink &sink) {
            for (int s = 0; s < 2; ++s) {
                const MetricLabels labels = {{"shard", std::to_string(s)}};
                sink.gauge(a, labels, s, a);
                sink.gauge(b, labels, 10 + s, b);
            }
        });
    reg.addCollector([](MetricsSink &sink) {
        sink.gauge("flip_ewma", {{"shard", "9"}}, 7, "flip_ewma");
    });

    const std::string text = renderPrometheus(reg.scrape());
    expectFamiliesContiguous(text);
    const std::string expect_head =
        "# HELP flip_ewma flip_ewma\n"
        "# TYPE flip_ewma gauge\n"
        "flip_ewma{shard=\"0\"} 0\n"
        "flip_ewma{shard=\"1\"} 1\n"
        "flip_ewma{shard=\"9\"} 7\n"
        "# HELP miss_ewma miss_ewma\n"
        "# TYPE miss_ewma gauge\n"
        "miss_ewma{shard=\"0\"} 10\n"
        "miss_ewma{shard=\"1\"} 11\n"
        "# HELP hits_total hits_total\n";
    EXPECT_EQ(text.substr(0, expect_head.size()), expect_head) << text;
}

TEST(Metrics, PrometheusGroupsAServedCacheScrape)
{
    // The kv_server registry shape: a 2-shard service (per-shard
    // cache rows), the drift pump's per-shard rows, and the trace
    // plane.
    net::KvServiceConfig config;
    config.cache.capacity = 256;
    config.cache.numShards = 2;
    config.cache.numBuckets = 16;
    net::KvService service(config);
    MetricsRegistry reg;
    service.registerMetrics(reg);
    registerTraceMetrics(reg);
    TelemetryPumpConfig pump_config;
    pump_config.logSink = [](const std::string &) {};
    pump_config.driftSampler = [&service] {
        std::vector<DriftShardSample> out;
        for (const auto &t : service.cache().shardTelemetry())
            out.push_back({t.selectionFlips, t.diffMisses, t.ops()});
        return out;
    };
    TelemetryPump pump(pump_config);
    pump.registerMetrics(reg);
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
    // A YCSB run's latency is its per-class histograms, one sample per
    // unpipelined op: each of two runs on one service reports only its
    // own ops, and the service's registry counts every request the
    // run made (each load put and each YCSB-A op is one request).
    net::KvServiceConfig config;
    config.cache.capacity = 1024;
    config.cache.numShards = 2;
    config.cache.numBuckets = 64;
    net::KvService service(config);
    MetricsRegistry reg;
    service.registerMetrics(reg);
    ycsb::YcsbConfig yc;
    yc.workload = 'a';
    yc.records = 4096;
    yc.clients = 2;
    double served = 0.0;
    for (const std::uint64_t ops : {600u, 400u}) {
        yc.opsPerClient = ops;
        ycsb::YcsbDriver driver(yc, &service, [&](unsigned) {
            return ycsb::makeLoopbackConnection(service);
        });
        const ycsb::YcsbResult r = driver.run();
        std::uint64_t samples = 0;
        for (unsigned c = 0; c < ycsb::kNumOpClasses; ++c) {
            const LatencySnapshot &lat = r.classes[c].latency;
            EXPECT_EQ(lat.count(), r.classes[c].ops);
            samples += lat.count();
        }
        EXPECT_EQ(samples, yc.clients * ops);

        const MetricsSnapshot snap = reg.scrape();
        const MetricSample *requests =
            find(snap, "adcache_net_requests_total");
        ASSERT_NE(requests, nullptr);
        EXPECT_EQ(requests->value - served,
                  double(r.loadOps + r.runOps));
        served = requests->value;
        const MetricSample *p99 =
            find(snap, "adcache_net_request_p99_ns");
        ASSERT_NE(p99, nullptr);
        EXPECT_GT(p99->value, 0.0);
    }
}

TEST(Metrics, ScrapeWhileServing)
{
    // Three loopback clients drive a served cache while this thread
    // scrapes its registry: the collectors read the service's
    // per-thread counters and the shards' under their locks, and no
    // counter may go backwards between scrapes.
    net::KvServiceConfig config;
    config.cache.capacity = 256;
    config.cache.numShards = 2;
    config.cache.numBuckets = 16;
    net::KvService service(config);
    MetricsRegistry reg;
    service.registerMetrics(reg);
    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    for (std::uint64_t c = 0; c < 3; ++c)
        clients.emplace_back([&, c] {
            net::LoopbackConnection conn(service);
            for (std::uint64_t k = c; !stop.load(); k += 3) {
                conn.put(k % 512, "v");
                conn.get((k / 2) % 512);
            }
        });

    double last = 0.0;
    for (int i = 0; i < 50; ++i) {
        const MetricsSnapshot snap = reg.scrape();
        const MetricSample *s = find(snap, "adcache_net_requests_total");
        ASSERT_NE(s, nullptr);
        EXPECT_GE(s->value, last);
        last = s->value;
    }
    stop.store(true);
    for (std::thread &t : clients)
        t.join();
    const MetricsSnapshot snap = reg.scrape();
    const MetricSample *s = find(snap, "adcache_net_requests_total");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->value, double(service.requestsServed()));
}
