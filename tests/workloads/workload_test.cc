#include "workloads/workload.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

namespace adcache
{
namespace
{

WorkloadSpec
simpleSpec(std::uint64_t phase_len = 10'000)
{
    WorkloadSpec spec;
    spec.name = "test";
    spec.seed = 7;
    PhaseSpec p;
    p.instructions = phase_len;
    p.kernels.push_back(KernelSpec::zipf(0x100000, 64 * 1024, 0.8));
    spec.phases.push_back(p);
    return spec;
}

TEST(Workload, Deterministic)
{
    WorkloadGenerator a(simpleSpec()), b(simpleSpec());
    TraceInstr ia, ib;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(a.next(ia));
        ASSERT_TRUE(b.next(ib));
        EXPECT_EQ(ia.pc, ib.pc);
        EXPECT_EQ(ia.cls, ib.cls);
        EXPECT_EQ(ia.memAddr, ib.memAddr);
        EXPECT_EQ(ia.taken, ib.taken);
    }
}

TEST(Workload, ResetReproducesStream)
{
    WorkloadGenerator gen(simpleSpec());
    const auto first = drain(gen, 2000);
    gen.reset();
    const auto second = drain(gen, 2000);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].pc, second[i].pc);
        EXPECT_EQ(first[i].memAddr, second[i].memAddr);
    }
}

TEST(Workload, InstructionMixMatchesSpec)
{
    auto spec = simpleSpec(50'000);
    spec.phases[0].loadFrac = 0.30;
    spec.phases[0].storeFrac = 0.10;
    spec.phases[0].branchFrac = 0.10;
    WorkloadGenerator gen(spec);
    std::map<InstrClass, int> counts;
    TraceInstr instr;
    const int n = 50'000;
    for (int i = 0; i < n; ++i) {
        ASSERT_TRUE(gen.next(instr));
        ++counts[instr.cls];
    }
    EXPECT_NEAR(counts[InstrClass::Load], 0.30 * n, 0.02 * n);
    EXPECT_NEAR(counts[InstrClass::Store], 0.10 * n, 0.02 * n);
    // Branches include the forced loop-closing ones.
    EXPECT_GT(counts[InstrClass::Branch], int(0.08 * n));
}

TEST(Workload, MemOpsCarryAddresses)
{
    WorkloadGenerator gen(simpleSpec());
    TraceInstr instr;
    for (int i = 0; i < 10'000; ++i) {
        ASSERT_TRUE(gen.next(instr));
        if (instr.isMem()) {
            EXPECT_GE(instr.memAddr, 0x100000u);
            EXPECT_LT(instr.memAddr, 0x100000u + 64 * 1024);
            EXPECT_EQ(instr.memAddr % 8, 0u) << "word aligned";
            EXPECT_EQ(instr.memSize, 8);
        }
    }
}

TEST(Workload, PcStaysInCodeFootprint)
{
    auto spec = simpleSpec();
    spec.phases[0].codeFootprint = 4096;
    WorkloadGenerator gen(spec);
    TraceInstr instr;
    Addr min_pc = ~Addr(0), max_pc = 0;
    for (int i = 0; i < 20'000; ++i) {
        ASSERT_TRUE(gen.next(instr));
        min_pc = std::min(min_pc, instr.pc);
        max_pc = std::max(max_pc, instr.pc);
    }
    EXPECT_LT(max_pc - min_pc, 4096u);
}

TEST(Workload, PhasesAdvanceAndLoop)
{
    WorkloadSpec spec;
    spec.name = "phased";
    spec.seed = 3;
    PhaseSpec p1;
    p1.instructions = 1000;
    p1.kernels.push_back(KernelSpec::zipf(0x0, 4096, 0.8));
    PhaseSpec p2 = p1;
    p2.kernels.clear();
    p2.kernels.push_back(KernelSpec::zipf(0x40000000, 4096, 0.8));
    spec.phases = {p1, p2};
    WorkloadGenerator gen(spec);
    TraceInstr instr;
    int phase2_mem_in_first_1000 = 0, phase2_mem_in_second_1000 = 0;
    for (int i = 0; i < 2000; ++i) {
        ASSERT_TRUE(gen.next(instr));
        if (instr.isMem() && instr.memAddr >= 0x40000000) {
            (i < 1000 ? phase2_mem_in_first_1000
                      : phase2_mem_in_second_1000) += 1;
        }
    }
    EXPECT_EQ(phase2_mem_in_first_1000, 0);
    EXPECT_GT(phase2_mem_in_second_1000, 50);
    // Looping: instructions keep coming past the phase list.
    for (int i = 0; i < 5000; ++i)
        ASSERT_TRUE(gen.next(instr));
}

TEST(Workload, NonLoopingSpecEnds)
{
    auto spec = simpleSpec(500);
    spec.loopPhases = false;
    WorkloadGenerator gen(spec);
    TraceInstr instr;
    int n = 0;
    while (gen.next(instr))
        ++n;
    EXPECT_EQ(n, 500);
}

TEST(Workload, BranchesHaveTargets)
{
    WorkloadGenerator gen(simpleSpec());
    TraceInstr instr;
    int branches = 0;
    for (int i = 0; i < 20'000 && branches < 500; ++i) {
        ASSERT_TRUE(gen.next(instr));
        if (instr.isBranch()) {
            ++branches;
            EXPECT_NE(instr.target, 0u);
        }
    }
    EXPECT_GE(branches, 500);
}

TEST(Workload, DependenciesReferenceRecentDsts)
{
    auto spec = simpleSpec();
    spec.phases[0].depWindow = 4;
    WorkloadGenerator gen(spec);
    TraceInstr instr;
    std::vector<std::uint8_t> recent;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(gen.next(instr));
        if (instr.src1 != noReg && recent.size() >= 8) {
            // src must be one of the recent destinations (or noReg
            // from warmup).
            const auto begin = recent.end() - 8;
            EXPECT_TRUE(std::find(begin, recent.end(), instr.src1) !=
                        recent.end())
                << "src1 outside the dependence window";
        }
        if (instr.dst != noReg)
            recent.push_back(instr.dst);
    }
}

TEST(Workload, ShrinkingDependenceWindowAcrossPhases)
{
    // A wide-window phase followed by a narrow one: after each switch
    // the register ring must stay inside the narrow window, and every
    // source must be one of that phase's last three destinations.
    auto spec = simpleSpec(1000);
    spec.phases[0].depWindow = 28;
    PhaseSpec narrow = spec.phases[0];
    narrow.depWindow = 3;
    spec.phases.push_back(narrow);
    WorkloadGenerator gen(spec);
    TraceInstr instr;
    std::vector<std::uint8_t> recent;
    for (int i = 0; i < 20'000; ++i) {
        if (i % 1000 == 0)
            recent.clear();  // a phase starts with an empty ring
        ASSERT_TRUE(gen.next(instr));
        if ((i / 1000) % 2 == 1 && instr.src1 != noReg) {
            const auto begin =
                recent.end() - std::min<std::ptrdiff_t>(3, recent.size());
            ASSERT_TRUE(std::find(begin, recent.end(), instr.src1) !=
                        recent.end())
                << "instruction " << i;
        }
        if (instr.dst != noReg)
            recent.push_back(instr.dst);
    }
}

} // namespace
} // namespace adcache
