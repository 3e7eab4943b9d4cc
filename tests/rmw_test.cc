/**
 * Tests for atomic read-modify-write support (paper Section III-C):
 * ISA classification, functional semantics, ppo treatment, and
 * atomicity under both verification engines.
 */

#include <gtest/gtest.h>

#include "axiomatic/checker.hh"
#include "isa/assembler.hh"
#include "isa/emulator.hh"
#include "isa/semantics.hh"
#include "litmus/suite.hh"
#include "model/ppo.hh"
#include "operational/explorer.hh"
#include "operational/gam_machine.hh"
#include "operational/inorder_machine.hh"
#include "sim/core.hh"
#include "sim/trace_gen.hh"

namespace gam
{
namespace
{

using isa::Opcode;
using isa::R;
using model::ModelKind;

TEST(RmwIsa, ClassifiedAsLoadAndStore)
{
    isa::Instruction i = isa::makeRmw(Opcode::AMOADD, R(1), R(2), R(3));
    EXPECT_TRUE(i.isRmw());
    EXPECT_TRUE(i.isLoad());
    EXPECT_TRUE(i.isStore());
    EXPECT_TRUE(i.isMem());
    EXPECT_FALSE(i.isRegToReg());
    EXPECT_TRUE(i.isMemType(isa::MemType::Load));
    EXPECT_TRUE(i.isMemType(isa::MemType::Store));
}

TEST(RmwIsa, RegisterSets)
{
    isa::Instruction i = isa::makeRmw(Opcode::AMOSWAP, R(1), R(2), R(3));
    auto rs = i.readSet();
    EXPECT_EQ(rs.size(), 2u);
    EXPECT_EQ(i.writeSet().size(), 1u);
    EXPECT_EQ(i.writeSet()[0], R(1));
    ASSERT_EQ(i.addrReadSet().size(), 1u);
    EXPECT_EQ(i.addrReadSet()[0], R(2));
    ASSERT_EQ(i.dataReadSet().size(), 1u);
    EXPECT_EQ(i.dataReadSet()[0], R(3));
}

TEST(RmwIsa, StoredValueSemantics)
{
    isa::Instruction swap = isa::makeRmw(Opcode::AMOSWAP, R(1), R(2),
                                         R(3));
    isa::Instruction add = isa::makeRmw(Opcode::AMOADD, R(1), R(2), R(3));
    EXPECT_EQ(isa::evalRmwStored(swap, 10, 99), 99);
    EXPECT_EQ(isa::evalRmwStored(add, 10, 5), 15);
}

TEST(RmwIsa, AssemblerSyntax)
{
    isa::Program p = isa::assemble(R"(
        amoswap r1, [r2+8], r3
        amoadd  r4, [r5], r6
    )");
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p[0].op, Opcode::AMOSWAP);
    EXPECT_EQ(p[0].imm, 8);
    EXPECT_EQ(p[1].op, Opcode::AMOADD);
    EXPECT_EQ(p[1].dst, R(4));
}

TEST(RmwIsa, Disassembly)
{
    isa::Instruction i = isa::makeRmw(Opcode::AMOADD, R(1), R(2), R(3));
    EXPECT_EQ(i.toString(), "amoadd r1, [r2], r3");
}

TEST(RmwEmulator, SwapAndAdd)
{
    isa::Program p = isa::assemble(R"(
        li r1, 0x1000
        li r2, 7
        amoadd r3, [r1], r2    # mem: 0 -> 7, r3 = 0
        li r4, 42
        amoswap r5, [r1], r4   # mem: 7 -> 42, r5 = 7
        ld r6, [r1]
        halt
    )");
    isa::Emulator emu(p);
    emu.run();
    EXPECT_EQ(emu.reg(R(3)), 0);
    EXPECT_EQ(emu.reg(R(5)), 7);
    EXPECT_EQ(emu.reg(R(6)), 42);
}

TEST(RmwPpo, ActsAsStoreAndLoad)
{
    using model::Trace;
    using model::TraceInstr;
    TraceInstr ld, rmw, ld2;
    ld.instr = isa::makeLoad(R(1), R(8));
    ld.addr = 0x1000;
    rmw.instr = isa::makeRmw(Opcode::AMOADD, R(2), R(8), R(3));
    rmw.addr = 0x1000;
    ld2.instr = isa::makeLoad(R(4), R(8));
    ld2.addr = 0x1000;
    Trace t{ld, rmw, ld2};

    // SAMemSt: the RMW's store side is ordered after the older load.
    EXPECT_TRUE(model::ppo_case::saMemSt(t)(0, 1));
    // SALdLd: the RMW pairs with the older load as a load...
    model::Relation ll = model::ppo_case::saLdLd(t);
    EXPECT_TRUE(ll(0, 1));
    // ... and shields the younger load from the older one as a store.
    EXPECT_TRUE(ll(1, 2));
    EXPECT_FALSE(ll(0, 2));
    // BrSt-style: under TSO an RMW is not reorderable with anything.
    model::Relation tso = model::preservedProgramOrder(
        t, ModelKind::TSO);
    EXPECT_TRUE(tso(1, 2));
}

TEST(RmwPpo, FenceOrdersBothSides)
{
    using model::Trace;
    using model::TraceInstr;
    TraceInstr rmw, f, rmw2;
    rmw.instr = isa::makeRmw(Opcode::AMOADD, R(1), R(8), R(2));
    rmw.addr = 0x1000;
    f.instr = isa::makeFence(isa::FenceKind::SL);
    rmw2.instr = isa::makeRmw(Opcode::AMOADD, R(3), R(9), R(4));
    rmw2.addr = 0x2000;
    Trace t{rmw, f, rmw2};
    model::Relation r = model::ppo_case::fenceOrd(t);
    EXPECT_TRUE(r(0, 1)); // RMW matches the S side of FenceSL
    EXPECT_TRUE(r(1, 2)); // and the L side
}

TEST(RmwAxiomatic, IncIncAlwaysSumsToTwo)
{
    // The full outcome set of rmw_inc_inc: memory always ends at 2 and
    // exactly one RMW reads 0.
    const auto &test = litmus::testByName("rmw_inc_inc");
    axiomatic::Checker checker(test, ModelKind::GAM);
    auto outcomes = checker.enumerate();
    ASSERT_FALSE(outcomes.empty());
    for (const auto &o : outcomes) {
        for (const auto &m : o.mem) {
            if (m.addr == litmus::LOC_A) {
                EXPECT_EQ(m.value, 2) << o.toString();
            }
        }
        isa::Value r1 = -1, r2 = -1;
        for (const auto &r : o.regs) {
            if (r.tid == 0 && r.reg == R(1))
                r1 = r.value;
            if (r.tid == 1 && r.reg == R(2))
                r2 = r.value;
        }
        EXPECT_TRUE((r1 == 0 && r2 == 1) || (r1 == 1 && r2 == 0))
            << o.toString();
    }
}

TEST(RmwAxiomatic, MutexUnderEveryAxiomaticModel)
{
    const auto &test = litmus::testByName("rmw_mutex");
    for (ModelKind kind : {ModelKind::SC, ModelKind::TSO, ModelKind::GAM0,
                           ModelKind::GAM, ModelKind::ARM}) {
        axiomatic::Checker checker(test, kind);
        EXPECT_FALSE(checker.isAllowed()) << model::modelName(kind);
    }
}

TEST(RmwOperational, MachineMatchesAxioms)
{
    // Outcome-set equality on the RMW litmus tests (GAM and GAM0).
    for (const char *name : {"rmw_inc_inc", "rmw_mutex", "rmw_dekker"}) {
        const auto &test = litmus::testByName(name);
        for (ModelKind kind : {ModelKind::GAM, ModelKind::GAM0}) {
            operational::GamOptions opts;
            opts.kind = kind;
            auto op = operational::exploreAll(
                operational::GamMachine(test, opts));
            ASSERT_TRUE(op.complete);
            axiomatic::Checker checker(test, kind);
            EXPECT_EQ(op.outcomes, checker.enumerate())
                << name << " under " << model::modelName(kind);
        }
    }
}

TEST(RmwOperational, TsoRmwIsFenceLike)
{
    // rmw_dekker is forbidden under TSO: the locked RMW drains the
    // store buffer and the in-order step keeps the younger load behind.
    const auto &test = litmus::testByName("rmw_dekker");
    auto outcomes = operational::exploreAll(
        operational::InOrderMachine(test, ModelKind::TSO)).outcomes;
    for (const auto &o : outcomes)
        EXPECT_FALSE(test.conditionMatches(o));
}

TEST(RmwSim, CycleSimulatorRejectsRmw)
{
    isa::Program p = isa::assemble(
        "li r1, 0x1000\nli r2, 1\namoadd r3, [r1], r2\nhalt\n");
    sim::DynTrace trace = sim::generateTrace(p, {}, 100);
    EXPECT_DEATH({ sim::Core core(trace, ModelKind::GAM); },
                 "does not model RMW");
}

} // namespace
} // namespace gam
