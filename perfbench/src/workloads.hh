/**
 * @file
 * The four perfbench workloads behind one interface (see
 * perfbench/README.md for what each runs and why).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hh"
#include "spans.hh"

namespace perfbench
{

/** Load threads of every timed phase. */
inline constexpr unsigned kLoadThreads = 2;

/** One workload: set-up, timed phase, trace slices, layered profile. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input from @p seed and warm the structures under
     *  test, discarding any earlier set-up first. */
    virtual void setup(std::uint64_t seed) = 0;

    /** The timed phase (about @p seconds) and its output checks. */
    virtual RunResult run(double seconds) = 0;

    /**
     * A short fixed slice of the timed loop; with @p tracer every
     * request is wrapped in a span. @return wall ns per op.
     */
    virtual double slice(Tracer *tracer, Checks &checks) = 0;

    /** The layered replay: per-layer metrics into @p out, spans
     *  into @p ring. */
    virtual void profile(SpanRing &ring, Metrics &out,
                         Checks &checks) = 0;

    /** Bytes of the benchmark's own input buffers. */
    virtual std::uint64_t bufferBytes() const = 0;
};

/** The workload named @p name, or nullptr. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** Workload names, in BENCHMARK.json order. */
inline constexpr const char *kWorkloadNames[] = {
    "sim-paper", "sim-l2", "kv-hot-read", "serve-ycsb-a"};

std::unique_ptr<Workload> makeSimPaper();
std::unique_ptr<Workload> makeSimL2();
std::unique_ptr<Workload> makeKvHotRead();
std::unique_ptr<Workload> makeServeYcsbA();

/** Per-program seed derived from the run seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
