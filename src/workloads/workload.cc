#include "workloads/workload.hh"

#include "util/logging.hh"

namespace adcache
{

WorkloadGenerator::WorkloadGenerator(WorkloadSpec spec)
    : spec_(std::move(spec)), rng_(spec_.seed), window_(1)
{
    adcache_assert(!spec_.phases.empty());
    for (const auto &phase : spec_.phases) {
        adcache_assert(phase.instructions > 0);
        adcache_assert(!phase.kernels.empty() ||
                       (phase.loadFrac == 0 && phase.storeFrac == 0));
    }
    enterPhase(0);
}

void
WorkloadGenerator::reset()
{
    rng_ = Rng(spec_.seed);
    pcOffset_ = 0;
    nextDst_ = 1;
    recentPos_ = 0;
    done_ = false;
    enterPhase(0);
}

void
WorkloadGenerator::enterPhase(std::size_t index)
{
    phaseIndex_ = index;
    phaseInstrs_ = 0;
    const PhaseSpec &phase = spec_.phases[index];

    kernels_.clear();
    kernelCdf_.clear();
    double total = 0.0;
    for (const auto &ks : phase.kernels) {
        kernels_.push_back(makeKernel(ks, rng_));
        total += ks.weight;
        kernelCdf_.push_back(total);
    }
    for (auto &c : kernelCdf_)
        c /= total > 0.0 ? total : 1.0;

    window_ = Rng::Bound(std::max(1u, phase.depWindow));
    recentDst_.assign(window_.value(), noReg);
    // A smaller window than the last phase's can leave the ring
    // position past its end; wrap it into the new window.
    recentPos_ %= recentDst_.size();

    // Lay out the phase's static code. The layout generator is
    // seeded from (workload seed, phase index) only, so re-entering
    // a phase reproduces the same program text.
    Rng layout(spec_.seed ^
               (0x9E3779B97F4A7C15ULL * (std::uint64_t(index) + 1)));
    const std::size_t num_slots =
        std::max<std::size_t>(2, phase.codeFootprint / 4);
    slots_.assign(num_slots, CodeSlot{});
    for (auto &slot : slots_) {
        const double u = layout.uniform();
        double acc = phase.loadFrac;
        if (u < acc) {
            slot.cls = InstrClass::Load;
        } else if (u < (acc += phase.storeFrac)) {
            slot.cls = InstrClass::Store;
        } else if (u < (acc += phase.branchFrac)) {
            slot.cls = InstrClass::Branch;
            slot.randomOutcome = layout.chance(phase.branchRandomFrac);
            // Most branches are biased taken (loop-like), some the
            // other way (error paths), mirroring real code.
            slot.takenBias = layout.chance(0.75);
        } else if (u < (acc += phase.fpAddFrac)) {
            slot.cls = InstrClass::FpAdd;
        } else if (u < (acc += phase.fpDivFrac)) {
            slot.cls = InstrClass::FpDiv;
        } else if (u < (acc += phase.intMultFrac)) {
            slot.cls = InstrClass::IntMult;
        } else {
            slot.cls = InstrClass::IntAlu;
        }
    }
    // The final slot closes the loop body.
    slots_.back() = CodeSlot{InstrClass::Branch, true, false, true};
    codeBytes_ = slots_.size() * 4;
    // The program counter carries over from the last phase, whose
    // code may have been larger.
    slot_ = pcOffset_ / 4 % slots_.size();
}

Addr
WorkloadGenerator::pickDataAddr()
{
    adcache_assert(!kernels_.empty());
    std::size_t k = 0;
    if (kernels_.size() > 1) {
        const double u = rng_.uniform();
        while (k + 1 < kernelCdf_.size() && u >= kernelCdf_[k])
            ++k;
    }
    // 8-byte-aligned word within the block the kernel selected.
    const Addr block = kernels_[k]->next(rng_) & ~Addr(7);
    return block;
}

bool
WorkloadGenerator::next(TraceInstr &out)
{
    if (done_)
        return false;

    const PhaseSpec &phase = spec_.phases[phaseIndex_];

    out = TraceInstr{};
    out.pc = codeBase_ + pcOffset_;
    const CodeSlot &slot = slots_[slot_];

    // Advance the program counter through the loop body.
    pcOffset_ += 4;
    ++slot_;
    if (pcOffset_ >= codeBytes_) {
        pcOffset_ = 0;
        slot_ = 0;
    }

    out.cls = slot.cls;

    // Source operands come from recently produced values.
    auto pick_src = [&]() -> std::uint8_t {
        return recentDst_[rng_.below(window_)];
    };

    switch (out.cls) {
      case InstrClass::Load:
        out.memAddr = pickDataAddr();
        out.memSize = 8;
        out.src1 = pick_src();  // address base register
        break;
      case InstrClass::Store:
        out.memAddr = pickDataAddr();
        out.memSize = 8;
        out.src1 = pick_src();  // address
        out.src2 = pick_src();  // data
        break;
      case InstrClass::Branch:
        out.src1 = pick_src();
        if (slot.loopBack) {
            // The loop-closing backward branch: almost always taken.
            out.taken = !rng_.chance(0.02);
            out.target = codeBase_;
        } else if (slot.randomOutcome) {
            out.taken = rng_.chance(0.5);
            out.target = out.pc + 64;
        } else {
            const double p = slot.takenBias
                                 ? phase.branchTakenProb
                                 : 1.0 - phase.branchTakenProb;
            out.taken = rng_.chance(p);
            out.target = out.pc + 32;
        }
        break;
      default:
        out.src1 = pick_src();
        out.src2 = pick_src();
        break;
    }

    // Destination register (branches and stores write none).
    if (!out.isBranch() && !out.isStore()) {
        out.dst = nextDst_;
        nextDst_ = nextDst_ == numArchRegs - 1
                       ? std::uint8_t{1}
                       : std::uint8_t(nextDst_ + 1);
        recentDst_[recentPos_] = out.dst;
        if (++recentPos_ == recentDst_.size())
            recentPos_ = 0;
    }

    // Phase bookkeeping.
    if (++phaseInstrs_ >= phase.instructions) {
        const std::size_t next_phase = phaseIndex_ + 1;
        if (next_phase < spec_.phases.size()) {
            enterPhase(next_phase);
        } else if (spec_.loopPhases) {
            enterPhase(0);
        } else {
            done_ = true;
        }
    }
    return true;
}

std::unique_ptr<TraceSource>
makeWorkload(const WorkloadSpec &spec)
{
    return std::make_unique<WorkloadGenerator>(spec);
}

} // namespace adcache
