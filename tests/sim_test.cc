/** Tests for the cycle-level OOO core and branch predictor. */

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "isa/assembler.hh"
#include "sim/bpred.hh"
#include "sim/core.hh"
#include "sim/trace_gen.hh"

namespace gam::sim
{
namespace
{

using isa::MemImage;
using isa::Program;
using model::ModelKind;

DynTrace
traceOf(const std::string &asm_text, MemImage mem = {},
        uint64_t max_uops = 100000)
{
    Program p = isa::assemble(asm_text);
    return generateTrace(p, std::move(mem), max_uops);
}

SimStats
simulate(const DynTrace &trace, ModelKind kind = ModelKind::GAM,
         CoreParams params = {})
{
    Core core(trace, kind, params);
    return core.run();
}

TEST(BpredTest, LearnsATightLoop)
{
    BranchPredictor bp(10);
    uint64_t pc = 17;
    int correct = 0;
    for (int i = 0; i < 100; ++i) {
        correct += bp.predict(pc) == true;
        bp.update(pc, true);
    }
    // The first ~historyBits updates walk fresh counters while the
    // global history fills with 1s; after that every prediction hits.
    EXPECT_GT(correct, 80);
}

TEST(BpredTest, AdaptsToAlternation)
{
    // With history, the alternating pattern becomes predictable.
    BranchPredictor bp(10);
    uint64_t pc = 5;
    int correct = 0;
    for (int i = 0; i < 400; ++i) {
        bool dir = i % 2 == 0;
        correct += bp.predict(pc) == dir;
        bp.update(pc, dir);
    }
    EXPECT_GT(correct, 300);
}

TEST(TraceGen, RecordsAddressesAndValues)
{
    DynTrace t = traceOf(R"(
        li r1, 0x1000
        li r2, 9
        st [r1], r2
        ld r3, [r1]
        halt
    )");
    ASSERT_EQ(t.uops.size(), 4u);
    EXPECT_TRUE(t.programCompleted);
    EXPECT_EQ(t.uops[2].addr, 0x1000);
    EXPECT_EQ(t.uops[2].value, 9);
    EXPECT_EQ(t.uops[3].value, 9);
}

TEST(TraceGen, BranchDirections)
{
    DynTrace t = traceOf(R"(
        li r1, 2
    loop:
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    )");
    // li, addi, bne(taken), addi, bne(not taken)
    ASSERT_EQ(t.uops.size(), 5u);
    EXPECT_TRUE(t.uops[2].taken);
    EXPECT_FALSE(t.uops[4].taken);
    EXPECT_EQ(t.uops[2].nextPc, 1u);
}

TEST(TraceGen, FinalStateMatchesEmulator)
{
    DynTrace t = traceOf("li r1, 3\naddi r2, r1, 4\nhalt\n");
    EXPECT_EQ(t.finalState.reg(isa::R(2)), 7);
}

TEST(CoreTest, CommitsEveryTraceUop)
{
    DynTrace t = traceOf(R"(
        li r1, 50
        li r2, 0
    loop:
        add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    )");
    SimStats s = simulate(t);
    EXPECT_EQ(s.committedUops, t.uops.size());
    EXPECT_GT(s.cycles, 0u);
    EXPECT_LE(s.upc(), 6.0); // cannot beat the issue width
}

TEST(CoreTest, AllModelsCommitIdentically)
{
    DynTrace t = traceOf(R"(
        li r1, 0x1000
        li r4, 30
    loop:
        st [r1], r4
        ld r2, [r1]
        ld r3, [r1]
        addi r4, r4, -1
        bne r4, r0, loop
        halt
    )");
    for (ModelKind kind : {ModelKind::GAM, ModelKind::ARM,
                           ModelKind::GAM0, ModelKind::AlphaStar}) {
        SimStats s = simulate(t, kind);
        EXPECT_EQ(s.committedUops, t.uops.size())
            << model::modelName(kind);
    }
}

TEST(CoreTest, StoreForwardingHappens)
{
    DynTrace t = traceOf(R"(
        li r1, 0x1000
        li r4, 100
    loop:
        st [r1], r4
        ld r2, [r1]
        addi r4, r4, -1
        bne r4, r0, loop
        halt
    )");
    SimStats s = simulate(t);
    EXPECT_GT(s.storeForwards, 50u);
}

TEST(CoreTest, StoreForwardingAblationStillCorrect)
{
    DynTrace t = traceOf(R"(
        li r1, 0x1000
        li r4, 50
    loop:
        st [r1], r4
        ld r2, [r1]
        addi r4, r4, -1
        bne r4, r0, loop
        halt
    )");
    CoreParams p;
    p.storeForwarding = false;
    SimStats with = simulate(t, ModelKind::GAM);
    SimStats without = simulate(t, ModelKind::GAM, p);
    EXPECT_EQ(without.committedUops, t.uops.size());
    EXPECT_EQ(without.storeForwards, 0u);
    // Forwarding should not hurt.
    EXPECT_LE(with.cycles, without.cycles + 10);
}

TEST(CoreTest, SpeculativeLoadIssueAblation)
{
    DynTrace t = traceOf(R"(
        li r1, 0x1000
        li r2, 0x2000
        li r4, 50
    loop:
        st [r1], r4
        ld r3, [r2]
        addi r4, r4, -1
        bne r4, r0, loop
        halt
    )");
    CoreParams p;
    p.speculativeLoadIssue = false;
    SimStats conservative = simulate(t, ModelKind::GAM, p);
    EXPECT_EQ(conservative.committedUops, t.uops.size());
}

TEST(CoreTest, BranchMispredictsDetected)
{
    // A data-dependent unpredictable branch stream.
    MemImage mem;
    Rng rng(99);
    for (int i = 0; i < 512; ++i)
        mem.store(0x1000 + i * 8, rng.range(2));
    DynTrace t = traceOf(R"(
        li r1, 0x1000
        li r4, 500
    loop:
        ld r2, [r1]
        beq r2, r0, skip
        addi r3, r3, 1
    skip:
        addi r1, r1, 8
        addi r4, r4, -1
        bne r4, r0, loop
        halt
    )", mem);
    SimStats s = simulate(t);
    EXPECT_EQ(s.committedUops, t.uops.size());
    EXPECT_GT(s.branchMispredicts, 50u);
    EXPECT_GT(s.condBranches, 900u);
}

TEST(CoreTest, LateAddressKillsOnlyUnderGam)
{
    // An older load's address resolves (via a slow divide) long after a
    // younger same-address load executed: GAM kills, ARM/GAM0 do not.
    MemImage mem;
    mem.store(0x3000, 0x1000); // pointer to the shared target
    std::string src = R"(
        li r5, 0x3000
        li r6, 0x1000
        li r4, 200
    loop:
        ld r1, [r5]      # r1 = 0x1000 (slow-ish chain below)
        div r1, r1, r7   # delay the address...
        mul r1, r1, r7   # ...and restore it (r7 = 1)
        ld r2, [r1]      # older load, late address
        ld r3, [r6]      # younger same-address load, early
        addi r4, r4, -1
        bne r4, r0, loop
        halt
    )";
    Program p = isa::assemble("li r7, 1\n" + src);
    DynTrace t = generateTrace(p, mem, 100000);

    SimStats gam = simulate(t, ModelKind::GAM);
    SimStats arm = simulate(t, ModelKind::ARM);
    SimStats gam0 = simulate(t, ModelKind::GAM0);
    EXPECT_GT(gam.saLdLdKills, 0u);
    EXPECT_EQ(arm.saLdLdKills, 0u);
    EXPECT_EQ(gam0.saLdLdKills, 0u);
    EXPECT_EQ(gam0.saLdLdStalls, 0u);
    EXPECT_EQ(gam.committedUops, t.uops.size());
}

TEST(CoreTest, LoadLoadForwardingOnlyUnderAlphaStar)
{
    DynTrace t = traceOf(R"(
        li r1, 0x1000
        li r4, 200
    loop:
        ld r2, [r1]
        ld r3, [r1]
        addi r4, r4, -1
        bne r4, r0, loop
        halt
    )");
    SimStats alpha = simulate(t, ModelKind::AlphaStar);
    SimStats gam = simulate(t, ModelKind::GAM);
    SimStats gam0 = simulate(t, ModelKind::GAM0);
    EXPECT_GT(alpha.llForwards, 0u);
    EXPECT_EQ(gam.llForwards, 0u);
    EXPECT_EQ(gam0.llForwards, 0u);
}

TEST(CoreTest, WarmupExcludedFromStats)
{
    DynTrace t = traceOf(R"(
        li r4, 500
    loop:
        addi r4, r4, -1
        bne r4, r0, loop
        halt
    )");
    Core core(t, ModelKind::GAM);
    SimStats s = core.run(400);
    EXPECT_EQ(s.committedUops, t.uops.size() - 400);
}

TEST(CoreTest, MemoryLatencyVisible)
{
    // A pointer chase across many lines is slower than an L1-resident
    // one.
    MemImage far_mem, near_mem;
    for (int i = 0; i < 256; ++i) {
        far_mem.store(0x10000 + i * 4096,
                      0x10000 + ((i + 1) % 256) * 4096);
        near_mem.store(0x10000 + i * 8, 0x10000 + ((i + 1) % 256) * 8);
    }
    std::string src = R"(
        li r1, 0x10000
        li r4, 240
    loop:
        ld r1, [r1]
        addi r4, r4, -1
        bne r4, r0, loop
        halt
    )";
    DynTrace far_t = traceOf(src, far_mem);
    DynTrace near_t = traceOf(src, near_mem);
    SimStats far_s = simulate(far_t);
    SimStats near_s = simulate(near_t);
    EXPECT_GT(far_s.cycles, near_s.cycles * 3);
}

TEST(CoreTest, PerKuopsNormalization)
{
    SimStats s;
    s.committedUops = 2000;
    EXPECT_DOUBLE_EQ(s.perKuops(4), 2.0);
    s.committedUops = 0;
    EXPECT_DOUBLE_EQ(s.perKuops(4), 0.0);
}

} // namespace
} // namespace gam::sim
