/**
 * @file
 * The simulator workloads: sim-paper (whole programs through
 * System::runTimed, as the paper figures run them) and sim-l2 (the
 * same programs' L2 reference streams replayed through four L2
 * organisations).
 */

#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/adaptive_cache.hh"
#include "core/sbar_cache.hh"
#include "oracle/differential.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "workloads.hh"
#include "workloads/suite.hh"

using namespace adcache;

namespace perfbench
{

namespace
{

/**
 * Instructions per sim-paper job (one program, fresh machine): the
 * paper figures' budget, instrBudget()'s default. Shorter jobs would
 * mostly fill an empty L2 and leave multi-phase programs in their
 * first phase.
 */
constexpr InstCount kJobInstrs = 3'000'000;
/** Instructions per program in sim-paper's warm-up. */
constexpr InstCount kWarmInstrs = 50'000;
/** Instructions per program in the layered replay. */
constexpr InstCount kProfileInstrs = kJobInstrs;
/** Instructions per program captured into sim-l2's L2 streams. */
constexpr InstCount kCaptureInstrs = kJobInstrs;
/** L2 references per stream lockstep-checked against the oracle. */
constexpr std::size_t kOraclePrefix = 4096;
/** L2 references per timed chunk in the layered replay. */
constexpr std::size_t kChunk = 4096;
/** Programs in one trace-overhead slice. */
constexpr std::size_t kSlicePrograms = 2;

/** The Table-1 machine with the paper's LRU/LFU adaptive L2. */
SystemConfig
paperMachine()
{
    SystemConfig c;
    c.l2 = L2Spec::adaptiveLruLfu();
    return c;
}

/** The primary-set programs' generators, seeded from @p seed. */
std::vector<std::unique_ptr<TraceSource>>
programs(std::uint64_t seed)
{
    std::vector<std::unique_ptr<TraceSource>> out;
    const auto defs = primaryBenchmarks();
    for (std::size_t i = 0; i < defs.size(); ++i)
        out.push_back(makeBenchmark(*defs[i], deriveSeed(seed, i)));
    return out;
}

/** The job worker @p t's call @p i runs: each worker runs every job
 *  in turn, from its own offset. */
std::size_t
jobOf(unsigned t, std::uint64_t i, std::size_t jobs)
{
    return std::size_t((i + t * jobs / 2) % jobs);
}

/** Per worker, the wall time of each call, indexed by call. */
using CallTimes = std::array<std::vector<std::uint64_t>, kLoadThreads>;

/**
 * One latency sample per job: the mean time of its counted runs, so
 * the quantiles do not depend on which jobs a window ran twice.
 */
LatencyHistogram
jobLatency(const CallTimes &ns, const RunResult &res, std::size_t jobs)
{
    std::vector<double> sum(jobs);
    std::vector<unsigned> runs(jobs);
    for (unsigned t = 0; t < kLoadThreads; ++t)
        for (std::uint64_t i = res.countedCalls[t].first;
             i < res.countedCalls[t].second; ++i) {
            const std::size_t j = jobOf(t, i, jobs);
            sum[j] += double(ns[t][i]);
            ++runs[j];
        }
    LatencyHistogram h;
    for (std::size_t j = 0; j < jobs; ++j)
        if (runs[j])
            h.add(std::uint64_t(sum[j] / runs[j]));
    return h;
}

/** What must repeat exactly for a job with a given seed. */
struct JobOutcome
{
    std::uint64_t instrs = 0, cycles = 0;
    std::uint64_t l2Accesses = 0, l2Misses = 0;

    bool operator==(const JobOutcome &) const = default;
};

JobOutcome
outcomeOf(const SimResult &r)
{
    return {r.core.instructions, r.core.cycles, r.l2DemandAccesses,
            r.l2DemandMisses};
}

/**
 * Per-worker first outcome of every job; later runs of a job must
 * repeat it exactly, and both workers must agree.
 */
template <class Outcome>
class Repeats
{
  public:
    explicit Repeats(std::size_t jobs)
        : first_(kLoadThreads, std::vector<Outcome>(jobs)),
          seen_(kLoadThreads, std::vector<char>(jobs))
    {
    }

    /** Record worker @p t's outcome of job @p j; false if it differs
     *  from that worker's first outcome of the job. */
    bool
    note(unsigned t, std::size_t j, const Outcome &o)
    {
        if (!seen_[t][j]) {
            seen_[t][j] = 1;
            first_[t][j] = o;
        }
        return o == first_[t][j];
    }

    /** Jobs worker 0 has not run (a window too short for a pass). */
    std::vector<std::size_t>
    unseen() const
    {
        std::vector<std::size_t> out;
        for (std::size_t j = 0; j < seen_[0].size(); ++j)
            if (!seen_[0][j])
                out.push_back(j);
        return out;
    }

    /** Check worker 1 agrees with worker 0 on every job both ran;
     *  @return worker 0's outcomes. */
    const std::vector<Outcome> &
    agree(Checks &checks) const
    {
        for (std::size_t j = 0; j < first_[0].size(); ++j)
            checks.check(seen_[0][j] &&
                         (!seen_[1][j] || first_[1][j] == first_[0][j]));
        return first_[0];
    }

  private:
    std::vector<std::vector<Outcome>> first_;
    std::vector<std::vector<char>> seen_;
};

class SimPaper final : public Workload
{
  public:
    void
    setup(std::uint64_t seed) override
    {
        for (unsigned t = 0; t < kLoadThreads; ++t) {
            gens_[t].clear();
            gens_[t] = programs(seed);
        }
        // Page the simulator in: one short job per program.
        for (auto &g : gens_[0]) {
            System sys(machine_);
            g->reset();
            sys.runTimed(*g, kWarmInstrs);
        }
    }

    /** Each worker runs every program in turn, from its own offset. */
    RunResult
    run(double seconds) override
    {
        const std::size_t n = gens_[0].size();
        Repeats<JobOutcome> repeats(n);
        CallTimes times;
        RunResult res = timedPhase(
            kLoadThreads, seconds, kNoSamples,
            [&](unsigned t, std::uint64_t i) {
                const std::size_t p = jobOf(t, i, n);
                const std::uint64_t t0 = nowNs();
                const JobOutcome o = outcomeOf(job(t, p));
                times[t].push_back(nowNs() - t0);
                const bool ok =
                    o.instrs == kJobInstrs && repeats.note(t, p, o);
                if (!ok)
                    std::fprintf(stderr,
                                 "sim-paper: program %zu diverged (%llu "
                                 "instrs, %llu cycles)\n",
                                 p, (unsigned long long)o.instrs,
                                 (unsigned long long)o.cycles);
                return Done{o.instrs, ok};
            });
        res.latency = jobLatency(times, res, n);
        for (std::size_t p : repeats.unseen())
            res.checks.check(repeats.note(0, p, outcomeOf(job(0, p))));
        std::uint64_t accesses = 0, misses = 0;
        for (const JobOutcome &o : repeats.agree(res.checks)) {
            accesses += o.l2Accesses;
            misses += o.l2Misses;
        }
        res.hitRatio = 1.0 - double(misses) / double(accesses);
        return res;
    }

    double
    slice(Tracer *tracer, Checks &checks) override
    {
        SpanRing *ring = tracer ? &tracer->ring(0) : nullptr;
        std::uint64_t instrs = 0;
        const std::uint64_t t0 = nowNs();
        for (std::size_t p = 0; p < kSlicePrograms; ++p) {
            const std::uint64_t j0 = nowNs();
            const SimResult r = job(0, p);
            if (ring)
                ring->record("sim.job", ring->newId(), 0, p, j0, nowNs());
            checks.check(r.core.instructions == kJobInstrs);
            instrs += r.core.instructions;
        }
        return double(nowNs() - t0) / double(instrs);
    }

    /**
     * Layered replay: every program runs through the bare generator,
     * runFunctional and runTimed in turn, each on a fresh machine.
     * Each layer's self time is its per-instruction time minus that
     * of the layer inside it.
     */
    void
    profile(SpanRing &ring, Metrics &out, Checks &checks) override
    {
        static const char *const kLayers[3] = {
            "workloads.next", "sim.runFunctional", "sim.runTimed"};
        double ns[3] = {};
        std::uint64_t instrs = 0;
        SimResult sum;
        double cpi_sum = 0.0;
        for (unsigned layer = 0; layer < 3; ++layer) {
            const std::uint64_t pass = ring.newId();
            const std::uint64_t p0 = nowNs();
            for (std::size_t p = 0; p < gens_[0].size(); ++p) {
                System sys(machine_);
                TraceSource &src = *gens_[0][p];
                src.reset();
                const std::uint64_t t0 = nowNs();
                InstCount n = 0;
                if (layer == 0) {
                    TraceInstr instr;
                    while (n < kProfileInstrs && src.next(instr))
                        ++n;
                } else if (layer == 1) {
                    n = sys.runFunctional(src, kProfileInstrs)
                            .core.instructions;
                } else {
                    const SimResult r = sys.runTimed(src, kProfileInstrs);
                    n = r.core.instructions;
                    instrs += n;
                    cpi_sum += r.cpi;
                    sum.l1i.accesses += r.l1i.accesses;
                    sum.l1i.misses += r.l1i.misses;
                    sum.l1d.accesses += r.l1d.accesses;
                    sum.l1d.misses += r.l1d.misses;
                    sum.l2.accesses += r.l2.accesses;
                    sum.core.mispredicts += r.core.mispredicts;
                    sum.core.storeBuffer.stallCycles +=
                        r.core.storeBuffer.stallCycles;
                    sum.memory.busQueueCycles += r.memory.busQueueCycles;
                    sum.memory.reads += r.memory.reads;
                }
                const std::uint64_t t1 = nowNs();
                ring.record(kLayers[layer], ring.newId(), pass, p, t0,
                            t1);
                ns[layer] += double(t1 - t0);
                checks.check(n == kProfileInstrs);
            }
            ring.record("sim.layer_pass", pass, 0, layer, p0, nowNs());
        }
        const double n = double(gens_[0].size() * kProfileInstrs);
        const double kinstr = double(instrs) / 1000.0;
        out["workloads.gen_ns_per_instr"] = {ns[0] / n, "ns"};
        out["cache.hierarchy_ns_per_instr"] = {(ns[1] - ns[0]) / n, "ns"};
        out["cpu.ns_per_instr"] = {(ns[2] - ns[1]) / n, "ns"};
        out["sim.cpi"] = {cpi_sum / double(gens_[0].size()),
                          "cycles/instr"};
        out["cache.l1i_miss_ratio"] = {
            double(sum.l1i.misses) / double(sum.l1i.accesses), "ratio"};
        out["cache.l1d_miss_ratio"] = {
            double(sum.l1d.misses) / double(sum.l1d.accesses), "ratio"};
        out["core.l2_accesses_per_kinstr"] = {
            double(sum.l2.accesses) / kinstr, "count/kinstr"};
        out["cpu.branch_mpki"] = {double(sum.core.mispredicts) / kinstr,
                                  "count/kinstr"};
        out["cpu.sb_stall_cycles_per_kinstr"] = {
            double(sum.core.storeBuffer.stallCycles) / kinstr,
            "cycles/kinstr"};
        out["mem.bus_queue_cycles_per_miss"] = {
            double(sum.memory.busQueueCycles) / double(sum.memory.reads),
            "cycles/miss"};
    }

    std::uint64_t
    bufferBytes() const override
    {
        return 0;
    }

  private:
    /** Program @p p on a fresh machine, from worker @p t's generator. */
    SimResult
    job(unsigned t, std::size_t p)
    {
        System sys(machine_);
        gens_[t][p]->reset();
        return sys.runTimed(*gens_[t][p], kJobInstrs);
    }

    SystemConfig machine_ = paperMachine();
    std::vector<std::unique_ptr<TraceSource>> gens_[kLoadThreads];
};

/** One program's L2 references: block address | write bit. */
using L2Stream = std::vector<std::uint64_t>;

/**
 * Pass @p n instructions of @p src through Table-1 L1I/L1D caches
 * the way System does: an L1 miss becomes an L2 read, then a dirty
 * L1 victim becomes an L2 write.
 */
L2Stream
captureL2(TraceSource &src, const SystemConfig &machine, InstCount n)
{
    Cache l1i(machine.l1i), l1d(machine.l1d);
    L2Stream out;
    const auto miss = [&out](const AccessResult &r, Addr addr) {
        if (r.hit)
            return;
        out.push_back(addr & ~Addr(63));
        if (r.writeback)
            out.push_back((r.writebackAddr & ~Addr(63)) | 1);
    };
    TraceInstr instr;
    Addr last_line = ~Addr(0);
    for (InstCount k = 0; k < n && src.next(instr); ++k) {
        const Addr line = instr.pc >> 6;
        if (line != last_line) {
            miss(l1i.access(instr.pc, false), instr.pc);
            last_line = line;
        }
        if (instr.isLoad())
            miss(l1d.access(instr.memAddr, false), instr.memAddr);
        else if (instr.isStore())
            miss(l1d.access(instr.memAddr, true), instr.memAddr);
    }
    return out;
}

/** The four replayed L2 organisations. */
constexpr unsigned kNumOrgs = 4;
constexpr const char *kOrgNames[kNumOrgs] = {
    "adaptive_full", "adaptive_partial8", "adaptive_sketch",
    "sbar_partial8"};

AdaptiveConfig
adaptiveConfig(unsigned org)
{
    if (org == 2) {
        // LRU against CMS-LFU, with TinyLFU admission on the latter.
        AdaptiveConfig c =
            AdaptiveConfig::dual(PolicyType::LRU, PolicyType::CmsLfu);
        c.admission = {0, 1};
        return c;
    }
    AdaptiveConfig c =
        AdaptiveConfig::dual(PolicyType::LRU, PolicyType::LFU);
    c.partialTagBits = org == 1 ? 8 : 0;
    return c;
}

SbarConfig
sbarConfig()
{
    SbarConfig c;
    c.partialTagBits = 8;
    return c;
}

std::unique_ptr<CacheModel>
makeOrg(unsigned org)
{
    if (org == 3)
        return std::make_unique<SbarCache>(sbarConfig());
    return std::make_unique<AdaptiveCache>(adaptiveConfig(org));
}

PairFactory
oracleOf(unsigned org)
{
    return org == 3 ? makeSbarPair(sbarConfig())
                    : makeAdaptivePair(adaptiveConfig(org));
}

class SimL2 final : public Workload
{
  public:
    void
    setup(std::uint64_t seed) override
    {
        streams_.clear();
        refs_ = 0;
        for (const auto &gen : programs(seed)) {
            streams_.push_back(captureL2(*gen, machine_, kCaptureInstrs));
            refs_ += streams_.back().size();
        }
    }

    /** Each worker replays every (program, organisation) job in
     *  turn, from its own offset. */
    RunResult
    run(double seconds) override
    {
        const std::size_t jobs = streams_.size() * kNumOrgs;
        Repeats<std::uint64_t> repeats(jobs);
        CallTimes times;
        RunResult res = timedPhase(
            kLoadThreads, seconds, kNoSamples,
            [&](unsigned t, std::uint64_t i) {
                const std::size_t j = jobOf(t, i, jobs);
                const std::uint64_t t0 = nowNs();
                const auto cache = replay(j, nullptr, 0, nullptr);
                times[t].push_back(nowNs() - t0);
                const bool ok = repeats.note(t, j, cache->stats().misses);
                if (!ok)
                    std::fprintf(stderr, "sim-l2: job %zu diverged\n", j);
                return Done{cache->stats().accesses, ok};
            });
        res.latency = jobLatency(times, res, jobs);
        for (std::size_t j : repeats.unseen())
            res.checks.check(repeats.note(
                0, j, replay(j, nullptr, 0, nullptr)->stats().misses));
        std::uint64_t misses = 0;
        for (std::uint64_t m : repeats.agree(res.checks))
            misses += m;
        res.hitRatio = 1.0 - double(misses) / double(refs_ * kNumOrgs);
        oracleCheck(res.checks);
        return res;
    }

    double
    slice(Tracer *tracer, Checks &checks) override
    {
        SpanRing *ring = tracer ? &tracer->ring(0) : nullptr;
        std::uint64_t refs = 0;
        const std::uint64_t t0 = nowNs();
        for (std::size_t j = 0; j < kSlicePrograms * kNumOrgs; ++j) {
            const std::uint64_t id = ring ? ring->newId() : 0;
            const std::uint64_t j0 = nowNs();
            const auto cache = replay(j, ring, id, nullptr);
            if (ring)
                ring->record("core.replay", id, 0, j, j0, nowNs());
            checks.check(cache->stats().accesses ==
                         streams_[j / kNumOrgs].size());
            refs += cache->stats().accesses;
        }
        return double(nowNs() - t0) / double(refs);
    }

    /** Chunk-timed access() per organisation, plus its counters. */
    void
    profile(SpanRing &ring, Metrics &out, Checks &checks) override
    {
        std::uint64_t shadow_misses = 0, full_accesses = 0;
        std::uint64_t fallbacks = 0, evictions = 0;
        std::uint64_t bypasses = 0, sketch_misses = 0;
        for (unsigned org = 0; org < kNumOrgs; ++org) {
            const std::uint64_t pass = ring.newId();
            const std::uint64_t p0 = nowNs();
            double ns = 0.0;
            for (std::size_t p = 0; p < streams_.size(); ++p) {
                const std::size_t j = p * kNumOrgs + org;
                const std::uint64_t id = ring.newId();
                const std::uint64_t j0 = nowNs();
                const auto cache = replay(j, &ring, id, &ns);
                ring.record("core.replay", id, pass, j, j0, nowNs());
                const CacheStats &st = cache->stats();
                checks.check(st.accesses == streams_[p].size());
                if (org == 3)
                    continue;
                const auto &a = static_cast<const AdaptiveCache &>(*cache);
                if (org == 0) {
                    for (unsigned k = 0; k < a.numPolicies(); ++k)
                        shadow_misses += a.shadowMisses(k);
                    full_accesses += st.accesses;
                } else if (org == 1) {
                    fallbacks += a.fallbackEvictions();
                    evictions += st.evictions;
                } else {
                    bypasses += a.admissionBypasses();
                    sketch_misses += st.misses;
                }
            }
            ring.record("core.org_pass", pass, 0, org, p0, nowNs());
            out[std::string("core.") + kOrgNames[org] + "_ns"] = {
                ns / double(refs_), "ns"};
        }
        out["core.shadow_misses_per_access"] = {
            double(shadow_misses) / double(full_accesses), "count/access"};
        out["core.fallback_ratio"] = {
            double(fallbacks) / double(evictions), "ratio"};
        out["adapt.admission_bypass_ratio"] = {
            double(bypasses) / double(sketch_misses), "ratio"};
    }

    std::uint64_t
    bufferBytes() const override
    {
        return refs_ * sizeof(std::uint64_t);
    }

  private:
    /**
     * Job @p j: program j / kNumOrgs through organisation
     * j % kNumOrgs, on a fresh cache. With @p ring or @p ns the
     * replay is timed in chunks of kChunk references: one span per
     * chunk under @p parent, and the summed time added to @p ns.
     */
    std::unique_ptr<CacheModel>
    replay(std::size_t j, SpanRing *ring, std::uint64_t parent, double *ns)
    {
        std::unique_ptr<CacheModel> cache = makeOrg(j % kNumOrgs);
        const L2Stream &s = streams_[j / kNumOrgs];
        const bool timed = ring || ns;
        for (std::size_t base = 0; base < s.size(); base += kChunk) {
            const std::size_t end = std::min(base + kChunk, s.size());
            const std::uint64_t t0 = timed ? nowNs() : 0;
            for (std::size_t i = base; i < end; ++i)
                cache->access(s[i] & ~std::uint64_t(1), s[i] & 1);
            if (!timed)
                continue;
            const std::uint64_t t1 = nowNs();
            if (ns)
                *ns += double(t1 - t0);
            if (ring)
                ring->record("core.chunk", ring->newId(), parent, j, t0,
                             t1);
        }
        return cache;
    }

    /** Lockstep a prefix of every stream against src/oracle. */
    void
    oracleCheck(Checks &checks) const
    {
        for (unsigned org = 0; org < kNumOrgs; ++org) {
            const DifferentialChecker checker(oracleOf(org));
            for (std::size_t p = 0; p < streams_.size(); ++p) {
                const L2Stream &s = streams_[p];
                std::vector<Access> prefix;
                for (std::size_t i = 0;
                     i < std::min(kOraclePrefix, s.size()); ++i)
                    prefix.push_back(
                        {s[i] & ~std::uint64_t(1), (s[i] & 1) != 0});
                const auto mismatch = checker.run(prefix);
                if (mismatch)
                    std::fprintf(stderr, "sim-l2: %s program %zu: %s\n",
                                 kOrgNames[org], p,
                                 mismatch->format().c_str());
                checks.check(!mismatch);
            }
        }
    }

    SystemConfig machine_ = paperMachine();
    std::vector<L2Stream> streams_;
    std::uint64_t refs_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSimPaper()
{
    return std::make_unique<SimPaper>();
}

std::unique_ptr<Workload>
makeSimL2()
{
    return std::make_unique<SimL2>();
}

} // namespace perfbench
