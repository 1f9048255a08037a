/**
 * @file
 * perfbench: one process runs one workload.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out PATH]
 *
 * --trace 0 sets the workload up three times (setup_s is the
 * median), runs its timed phase for about S seconds and reports the
 * end-to-end metrics. --trace 1 instead measures the tracing cost on
 * the named workload, runs the layered replay of every workload and
 * reports the per-layer metrics; spans go to PATH as a Chrome trace.
 * The last stdout line is the JSON result; the exit code is nonzero
 * if any output check failed.
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "harness.hh"
#include "kv/kv_types.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace perfbench
{

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "sim-paper")
        return makeSimPaper();
    if (name == "sim-l2")
        return makeSimL2();
    if (name == "kv-hot-read")
        return makeKvHotRead();
    if (name == "serve-ycsb-a")
        return makeServeYcsbA();
    return nullptr;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t salt)
{
    return adcache::kv::mixKey(adcache::kv::mixKey(seed) ^ salt);
}

} // namespace perfbench

namespace
{

/** Set-ups per untraced run; setup_s is their median. */
constexpr unsigned kSetups = 3;
/** Trace-overhead pairs (untraced/traced slices, order alternating). */
constexpr unsigned kOverheadPairs = 3;
/** Spans retained per thread in the traced run. */
constexpr std::size_t kRingSpans = std::size_t(1) << 14;

std::string
number(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

void
printResult(bool correct, const Checks &checks, const Metrics &metrics)
{
    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(checks.attempted) +
                       ", \"failed\": " + std::to_string(checks.failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        line += (first ? "\"" : ", \"") + name +
                "\": {\"value\": " + number(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "sim-paper|sim-l2|kv-hot-read|serve-ycsb-a --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name, trace_out = "perfbench-trace.json";
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *v = argv[i + 1];
        if (flag == "--workload")
            name = v;
        else if (flag == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(v, nullptr);
        else if (flag == "--trace")
            trace = std::atoi(v);
        else if (flag == "--trace-out")
            trace_out = v;
        else
            return usage();
    }
    std::unique_ptr<Workload> w = makeWorkload(name);
    if (!w || argc % 2 == 0 || !(seconds > 0.0) ||
        (trace != 0 && trace != 1))
        return usage();

    Metrics metrics;
    Checks checks;
    if (trace == 0) {
        std::vector<double> setups;
        for (unsigned k = 0; k < kSetups; ++k) {
            const std::uint64_t t0 = nowNs();
            w->setup(seed);
            setups.push_back(secondsSince(t0));
        }
        RunResult r = w->run(seconds);
        checks = r.checks;
        const double ops = double(r.phase.ops);
        metrics["ops_per_s"] = {ops / r.phase.wallS, "op/s"};
        metrics["cpu_ns_per_op"] = {r.phase.cpuS * 1e9 / ops, "ns"};
        metrics["lat_p50_us"] = {r.latency.quantileNs(0.50) / 1e3, "us"};
        metrics["lat_p99_us"] = {r.latency.quantileNs(0.99) / 1e3, "us"};
        metrics["hit_ratio"] = {r.hitRatio, "ratio"};
        metrics["setup_s"] = {median(setups), "s"};
        metrics["peak_rss_mb"] = {
            double(peakRssBytes() - w->bufferBytes()) / (1024.0 * 1024.0),
            "MiB"};
        std::fprintf(stderr,
                     "perfbench: %s seed %llu: %llu ops in %.3f s wall, "
                     "%.3f s cpu, host steal %.1f%%, %llu latency "
                     "samples\n",
                     name.c_str(), (unsigned long long)seed,
                     (unsigned long long)r.phase.ops, r.phase.wallS,
                     r.phase.cpuS, 100.0 * r.phase.stealShare,
                     (unsigned long long)r.latency.count());
    } else {
        // Rings 0.. serve the load threads; one more per layered
        // replay, so each replay's spans survive the others.
        Tracer tracer(kLoadThreads + std::size(kWorkloadNames),
                      kRingSpans);
        w->setup(seed);
        std::vector<double> ratios;
        for (unsigned pair = 0; pair < kOverheadPairs; ++pair) {
            const bool traced_first = pair % 2 == 1;
            const double a = w->slice(traced_first ? &tracer : nullptr,
                                      checks);
            const double b = w->slice(traced_first ? nullptr : &tracer,
                                      checks);
            ratios.push_back(traced_first ? a / b : b / a);
        }
        metrics["obs.trace_overhead"] = {median(ratios), "x"};
        for (unsigned k = 0; k < std::size(kWorkloadNames); ++k) {
            SpanRing &ring = tracer.ring(kLoadThreads + k);
            if (name == kWorkloadNames[k]) {
                w->profile(ring, metrics, checks);
                continue;
            }
            const std::unique_ptr<Workload> o =
                makeWorkload(kWorkloadNames[k]);
            o->setup(seed);
            o->profile(ring, metrics, checks);
        }
        checks.check(tracer.writeChromeTrace(trace_out));
    }

    bool finite = true;
    for (const auto &[metric, m] : metrics)
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: %s is not finite\n",
                         metric.c_str());
            finite = false;
        }
    if (checks.failed)
        std::fprintf(stderr, "perfbench: %llu of %llu checks failed\n",
                     (unsigned long long)checks.failed,
                     (unsigned long long)checks.attempted);
    const bool correct = finite && checks.failed == 0;
    printResult(correct, checks, metrics);
    return correct ? 0 : 1;
}
