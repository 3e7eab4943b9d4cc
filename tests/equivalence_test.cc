/**
 * The paper's central theorem, property-tested: the operational and
 * axiomatic definitions of GAM accept exactly the same behaviors.
 *
 * For seeded random multi-threaded programs, the outcome set
 * enumerated by exhaustive exploration of the abstract machine must
 * equal the outcome set accepted by the axioms.  The same property is
 * checked for GAM0 and ARM (machine variants of Section III-E), and
 * for the SC and TSO reference pairs.
 */

#include <gtest/gtest.h>

#include "axiomatic/checker.hh"
#include "base/rng.hh"
#include "litmus/suite.hh"
#include "operational/explorer.hh"
#include "operational/gam_machine.hh"
#include "operational/inorder_machine.hh"

namespace gam
{
namespace
{

using isa::ProgramBuilder;
using isa::R;
using litmus::LitmusTest;
using model::ModelKind;

/**
 * Generate a random straight-line multi-threaded program over two
 * shared locations, with data-dependency chains, artificial address
 * dependencies and fences sprinkled in.
 */
LitmusTest
randomTest(uint64_t seed)
{
    Rng rng(seed);
    const int nthreads = 2 + int(rng.range(2));       // 2..3
    const int mem_budget_total = nthreads == 2 ? 6 : 7;

    litmus::LitmusBuilder builder(
        "random_" + std::to_string(seed), "generated");
    builder.location("a", litmus::LOC_A).location("b", litmus::LOC_B);

    int mem_ops = 0;
    for (int tid = 0; tid < nthreads; ++tid) {
        ProgramBuilder b;
        b.li(R(8), litmus::LOC_A).li(R(9), litmus::LOC_B);
        int next_reg = 1;
        isa::Reg last_val = R(0); // most recent value-holding register
        const int ops = 2 + int(rng.range(3)); // 2..4
        for (int i = 0; i < ops; ++i) {
            const isa::Reg loc = rng.chance(1, 2) ? R(8) : R(9);
            switch (rng.range(6)) {
              case 0: { // plain load
                isa::Reg dst = R(next_reg++);
                b.ld(dst, loc);
                last_val = dst;
                ++mem_ops;
                break;
              }
              case 1: { // store of a small constant
                isa::Reg v = R(next_reg++);
                b.li(v, 1 + int64_t(rng.range(2)));
                b.st(loc, v);
                ++mem_ops;
                break;
              }
              case 2: { // store of the last loaded value (data dep)
                b.st(loc, last_val);
                ++mem_ops;
                break;
              }
              case 3: { // artificially address-dependent load
                isa::Reg t = R(next_reg++);
                isa::Reg dst = R(next_reg++);
                b.xorr(t, last_val, last_val); // t = 0, carries the dep
                b.alu(isa::Opcode::ADD, t, t, loc);
                b.ld(dst, t);
                last_val = dst;
                ++mem_ops;
                break;
              }
              case 4: { // fence
                b.fence(isa::FenceKind(rng.range(4)));
                break;
              }
              default: { // atomic read-modify-write
                isa::Reg v = R(next_reg++);
                isa::Reg dst = R(next_reg++);
                b.li(v, 1 + int64_t(rng.range(2)));
                b.rmw(rng.chance(1, 2) ? isa::Opcode::AMOADD
                                       : isa::Opcode::AMOSWAP,
                      dst, loc, v);
                last_val = dst;
                ++mem_ops;
                break;
              }
            }
            if (mem_ops >= mem_budget_total)
                break;
        }
        builder.thread(b.build());
    }
    builder.requireReg(0, R(1), 0); // unused: engines compare full sets
    builder.expect(ModelKind::GAM, true);
    return builder.done();
}

std::string
diffOutcomes(const litmus::OutcomeSet &op, const litmus::OutcomeSet &ax)
{
    std::string s;
    for (const auto &o : op)
        if (!ax.count(o))
            s += "operational only: " + o.toString() + "\n";
    for (const auto &o : ax)
        if (!op.count(o))
            s += "axiomatic only: " + o.toString() + "\n";
    return s;
}

class Equivalence : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(Equivalence, GamFamilyOperationalEqualsAxiomatic)
{
    LitmusTest test = randomTest(GetParam());
    for (ModelKind kind : {ModelKind::GAM, ModelKind::GAM0}) {
        operational::GamOptions opts;
        opts.kind = kind;
        auto op = operational::exploreAll(
            operational::GamMachine(test, opts));
        ASSERT_TRUE(op.complete) << "state budget too small";

        axiomatic::Checker checker(test, kind);
        auto ax = checker.enumerate();

        EXPECT_EQ(op.outcomes, ax)
            << test.toString() << "model " << model::modelName(kind)
            << "\n" << diffOutcomes(op.outcomes, ax);
    }
}

TEST_P(Equivalence, ArmOperationalIsSoundWrtAxioms)
{
    // The ARM machine is sound but conservative (no abstract machine
    // exists in the paper; see gam_machine.hh): every outcome it
    // reaches must be accepted by the SALdLdARM axioms.
    LitmusTest test = randomTest(GetParam());
    operational::GamOptions opts;
    opts.kind = ModelKind::ARM;
    auto op = operational::exploreAll(
        operational::GamMachine(test, opts));
    ASSERT_TRUE(op.complete) << "state budget too small";

    axiomatic::Checker checker(test, ModelKind::ARM);
    auto ax = checker.enumerate();
    for (const auto &o : op.outcomes) {
        EXPECT_TRUE(ax.count(o))
            << test.toString() << "operational-only ARM outcome: "
            << o.toString();
    }
    // Note: no GAM-vs-ARM set inclusion is asserted in either
    // direction.  The paper calls SALdLdARM "strictly weaker" than
    // SALdLd, which is true for real ARM (local store forwarding is
    // exempt) but not for the constraint as literally printed: without
    // the intervening-store exemption the two are incomparable
    // (Figure 14b separates them one way, Figure 14a the other).
}

TEST_P(Equivalence, ScOperationalEqualsAxiomatic)
{
    LitmusTest test = randomTest(GetParam());
    auto op = operational::exploreAll(
        operational::InOrderMachine(test, ModelKind::SC));
    axiomatic::Checker checker(test, ModelKind::SC);
    auto ax = checker.enumerate();
    EXPECT_EQ(op.outcomes, ax)
        << test.toString() << diffOutcomes(op.outcomes, ax);
}

TEST_P(Equivalence, TsoOperationalEqualsAxiomatic)
{
    LitmusTest test = randomTest(GetParam());
    auto op = operational::exploreAll(
        operational::InOrderMachine(test, ModelKind::TSO));
    axiomatic::Checker checker(test, ModelKind::TSO);
    auto ax = checker.enumerate();
    EXPECT_EQ(op.outcomes, ax)
        << test.toString() << diffOutcomes(op.outcomes, ax);
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, Equivalence,
                         ::testing::Range(uint64_t(0), uint64_t(60)));

TEST(EquivalenceSuite, PaperTestsOperationalEqualsAxiomatic)
{
    // The full outcome-set equality also holds on every suite test
    // (not just the single asked-about condition).
    for (const auto &test : litmus::allTests()) {
        for (ModelKind kind : {ModelKind::GAM, ModelKind::GAM0}) {
            operational::GamOptions opts;
            opts.kind = kind;
            auto op = operational::exploreAll(
                operational::GamMachine(test, opts));
            if (!op.complete)
                continue; // outsized test: covered by verdict checks
            axiomatic::Checker checker(test, kind);
            auto ax = checker.enumerate();
            EXPECT_EQ(op.outcomes, ax)
                << test.name << " under " << model::modelName(kind)
                << "\n" << diffOutcomes(op.outcomes, ax);
        }
        // ARM: soundness (inclusion) on the suite.
        operational::GamOptions opts;
        opts.kind = ModelKind::ARM;
        auto op = operational::exploreAll(
            operational::GamMachine(test, opts));
        if (op.complete) {
            axiomatic::Checker checker(test, ModelKind::ARM);
            auto ax = checker.enumerate();
            for (const auto &o : op.outcomes) {
                EXPECT_TRUE(ax.count(o))
                    << test.name << " operational-only ARM outcome: "
                    << o.toString();
            }
        }
    }
}

} // namespace
} // namespace gam
