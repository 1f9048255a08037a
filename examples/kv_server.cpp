/**
 * @file
 * Standalone adaptive-KV server: hosts an AdaptiveKvCache behind the
 * wire protocol on a real TCP socket. Pair it with `kv_ycsb
 * --transport socket` in another terminal, or poke it by hand:
 *
 *   ./kv_server --port 4150 --workers 4
 *
 * GET misses are served read-through (the deterministic loader
 * stands in for a backing store), so the cache's adaptive machinery
 * — selection, admission, lock-free reads — is always exercised.
 * SIGINT/SIGTERM shut the server down gracefully: accepting stops,
 * in-flight responses flush, workers join.
 *
 * Live telemetry (docs/OBSERVABILITY.md): --metrics-port starts a
 * Prometheus exposition endpoint (GET /metrics, GET /healthz) plus
 * the TelemetryPump — drift EWMAs per shard, kv_drift crossings to
 * stderr — and --slow-budget-us arms the slow-request log. The
 * Stats-v2 opcode (kv_top's feed) always answers, metrics or not.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "net/server.hh"
#include "net/service.hh"
#include "obs/metrics.hh"
#include "obs/metrics_http.hh"
#include "obs/pump.hh"

using namespace adcache;

namespace
{

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true, std::memory_order_seq_cst);
}

} // namespace

int
main(int argc, char **argv)
{
    net::KvServerConfig server_conf;
    server_conf.port = 4150;
    net::KvServiceConfig service_conf;
    std::uint32_t stats_every_s = 0;
    int metrics_port = -1; //!< -1 = no metrics endpoint

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_next = i + 1 < argc;
        if (arg == "--port" && has_next) {
            server_conf.port = std::uint16_t(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--host" && has_next) {
            server_conf.host = argv[++i];
        } else if (arg == "--workers" && has_next) {
            server_conf.workers =
                unsigned(std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--capacity" && has_next) {
            service_conf.cache.capacity =
                std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--no-read-through") {
            service_conf.readThrough = false;
        } else if (arg == "--ttl" && has_next) {
            service_conf.loaderTtl = std::uint32_t(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--stats-every" && has_next) {
            stats_every_s = std::uint32_t(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--metrics-port" && has_next) {
            metrics_port =
                int(std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--slow-budget-us" && has_next) {
            service_conf.slowRequestBudgetNs =
                std::strtoull(argv[++i], nullptr, 10) * 1000;
        } else {
            std::fprintf(
                stderr,
                "usage: kv_server [--host H] [--port P] "
                "[--workers N] [--capacity N]\n"
                "                 [--no-read-through] [--ttl T] "
                "[--stats-every SECONDS]\n"
                "                 [--metrics-port P] "
                "[--slow-budget-us N]\n");
            return 2;
        }
    }

    net::KvService service(service_conf);
    net::KvServer server(service, server_conf);
    server.installStatsProvider(); // Stats v2 carries transport rows
    if (!server.start()) {
        std::fprintf(stderr, "kv_server: %s\n",
                     server.lastError().c_str());
        return 1;
    }

    // Live telemetry: registry + /metrics endpoint + pump.
    obs::MetricsRegistry registry;
    std::unique_ptr<obs::MetricsHttpServer> metrics_http;
    std::unique_ptr<obs::TelemetryPump> pump;
    if (metrics_port >= 0) {
        service.registerMetrics(registry); // includes the cache
        server.registerMetrics(registry);
        obs::registerTraceMetrics(registry);

        obs::MetricsHttpConfig http_conf;
        http_conf.host = server_conf.host;
        http_conf.port = std::uint16_t(metrics_port);
        metrics_http = std::make_unique<obs::MetricsHttpServer>(
            registry, http_conf);
        if (!metrics_http->start()) {
            std::fprintf(stderr, "kv_server: metrics: %s\n",
                         metrics_http->lastError().c_str());
            server.stop();
            return 1;
        }

        obs::TelemetryPumpConfig pump_conf;
        pump_conf.driftSampler =
            [&service]() -> std::vector<obs::DriftShardSample> {
            std::vector<obs::DriftShardSample> out;
            for (const auto &t : service.cache().shardTelemetry())
                out.push_back(
                    {t.selectionFlips, t.diffMisses, t.ops()});
            return out;
        };
        pump = std::make_unique<obs::TelemetryPump>(
            std::move(pump_conf));
        pump->registerMetrics(registry);
        pump->start();
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::printf("kv_server: serving on %s:%u (%u workers, capacity "
                "%llu, read-through %s)\n",
                server_conf.host.c_str(), unsigned(server.port()),
                server_conf.workers,
                static_cast<unsigned long long>(
                    service.cache().capacity()),
                service_conf.readThrough ? "on" : "off");
    if (metrics_http)
        std::printf("kv_server: metrics on http://%s:%u/metrics\n",
                    server_conf.host.c_str(),
                    unsigned(metrics_http->port()));
    std::fflush(stdout);

    std::uint32_t since_stats = 0;
    while (!g_stop.load(std::memory_order_seq_cst)) {
        std::this_thread::sleep_for(std::chrono::seconds(1));
        // TTLs tick in wall-clock seconds in the standalone server.
        service.cache().clockAdvance();
        if (stats_every_s && ++since_stats >= stats_every_s) {
            since_stats = 0;
            std::printf("---- %llu requests, %llu connections\n%s",
                        static_cast<unsigned long long>(
                            service.requestsServed()),
                        static_cast<unsigned long long>(
                            server.connectionsAccepted()),
                        service.statsText().c_str());
            std::fflush(stdout);
        }
    }
    std::printf("kv_server: shutting down\n");
    if (pump)
        pump->stop();
    if (metrics_http)
        metrics_http->stop();
    server.stop();
    return 0;
}
