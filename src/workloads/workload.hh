/**
 * @file
 * Phase-structured synthetic workload: composes access-pattern
 * kernels with an instruction mix into a full TraceSource carrying
 * register dependences, branch behaviour and code footprint — the
 * information the out-of-order timing model consumes.
 */

#ifndef ADCACHE_WORKLOADS_WORKLOAD_HH
#define ADCACHE_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/source.hh"
#include "util/rng.hh"
#include "workloads/kernels.hh"

namespace adcache
{

/** One phase of execution: kernels + instruction mix. */
struct PhaseSpec
{
    /** Dynamic instructions in this phase before moving on. */
    std::uint64_t instructions = 1'000'000;

    /** Kernel mixture; weights need not sum to 1. */
    std::vector<KernelSpec> kernels;

    // Instruction mix (fractions of all instructions; remainder is
    // plain integer ALU work).
    double loadFrac = 0.25;
    double storeFrac = 0.10;
    double branchFrac = 0.12;
    double fpAddFrac = 0.0;
    double fpDivFrac = 0.0;
    double intMultFrac = 0.02;

    /** Probability a (non-random) branch is taken. */
    double branchTakenProb = 0.88;
    /** Fraction of branches with 50/50 data-dependent outcomes. */
    double branchRandomFrac = 0.06;

    /** Static code footprint in bytes (drives the I-cache). */
    std::uint64_t codeFootprint = 8 * 1024;

    /**
     * Dependence window: each source register is drawn from the
     * destinations of the last `depWindow` instructions. Small
     * windows serialise execution (low ILP); large windows expose
     * parallelism (high ILP / MLP).
     */
    unsigned depWindow = 16;
};

/** A named workload: an (optionally looping) list of phases. */
struct WorkloadSpec
{
    std::string name;
    std::vector<PhaseSpec> phases;
    /** Restart from phase 0 when the last phase ends. */
    bool loopPhases = true;
    std::uint64_t seed = 1;
};

/** Generates the instruction stream described by a WorkloadSpec. */
class WorkloadGenerator : public TraceSource
{
  public:
    explicit WorkloadGenerator(WorkloadSpec spec);

    bool next(TraceInstr &out) override;
    void reset() override;

    const WorkloadSpec &spec() const { return spec_; }

  private:
    /**
     * Static properties of one code slot (one 4-byte instruction
     * position in the phase's loop body). Classes are fixed per slot
     * — as in real code — so the branch predictor sees stable
     * per-PC behaviour; only data addresses and data-dependent
     * branch outcomes vary dynamically.
     */
    struct CodeSlot
    {
        InstrClass cls = InstrClass::IntAlu;
        bool loopBack = false;       //!< closes the loop body
        bool randomOutcome = false;  //!< data-dependent 50/50 branch
        bool takenBias = true;       //!< direction of the usual bias
    };

    void enterPhase(std::size_t index);
    Addr pickDataAddr();

    WorkloadSpec spec_;
    Rng rng_;

    std::size_t phaseIndex_ = 0;
    std::uint64_t phaseInstrs_ = 0;
    std::vector<std::unique_ptr<AccessKernel>> kernels_;
    std::vector<double> kernelCdf_;
    std::vector<CodeSlot> slots_;

    // Code layout: a loop over [codeBase, codeBase+footprint).
    Addr codeBase_ = 0x0040'0000;
    std::uint64_t pcOffset_ = 0;
    std::uint64_t codeBytes_ = 0;  //!< slots_.size() * 4
    std::size_t slot_ = 0;         //!< slot of the next instruction

    // Register allocation state.
    std::uint8_t nextDst_ = 1;
    Rng::Bound window_;  //!< dependence window
    std::vector<std::uint8_t> recentDst_;
    std::size_t recentPos_ = 0;
    bool done_ = false;
};

/** Convenience: wrap a spec in a generator. */
std::unique_ptr<TraceSource> makeWorkload(const WorkloadSpec &spec);

} // namespace adcache

#endif // ADCACHE_WORKLOADS_WORKLOAD_HH
