/**
 * The diy-style test generator: determinism, validity and diversity of
 * the generated stream, and its interaction with the text format and
 * the verdict matrix.
 */

#include <gtest/gtest.h>

#include <set>

#include "base/hashing.hh"
#include "harness/litmus_runner.hh"
#include "litmus/generator.hh"
#include "litmus/parser.hh"

namespace gam
{
namespace
{

using litmus::generateTest;
using litmus::LitmusTest;

TEST(Generator, DeterministicUnderAFixedSeed)
{
    for (uint64_t i = 0; i < 50; ++i) {
        const LitmusTest a = generateTest(42, i);
        const LitmusTest b = generateTest(42, i);
        EXPECT_EQ(litmus::printLitmus(a), litmus::printLitmus(b)) << i;
    }
}

TEST(Generator, PinsTheStreamsOfThreeSeeds)
{
    // Every generated test of three streams, printed and digested:
    // seed 1 is CI's fuzz-smoke seed and 20260808 feeds the prescreen
    // pins, so a refactor that moves a single draw shows up here.
    const struct
    {
        uint64_t seed;
        uint64_t digest;
    } pinned[] = {
        {1, 0x8cee5827c0919d94ull},
        {7, 0xdc967ad2ec334e2cull},
        {20260808, 0xd61c28a8215a1a2cull},
    };
    for (const auto &p : pinned) {
        StateHasher h;
        for (uint64_t i = 0; i < 10'064; ++i)
            h.add(hashString(litmus::printLitmus(generateTest(p.seed, i))));
        EXPECT_EQ(h.digest(), p.digest) << "seed " << p.seed;
    }
}

TEST(Generator, StreamsWithDifferentSeedsDiffer)
{
    size_t different = 0;
    for (uint64_t i = 0; i < 20; ++i) {
        if (litmus::printLitmus(generateTest(1, i))
            != litmus::printLitmus(generateTest(2, i))) {
            ++different;
        }
    }
    EXPECT_GT(different, 10u);
}

TEST(Generator, EveryTestIsRunnableAndBounded)
{
    std::set<std::string> shapes;
    for (uint64_t i = 0; i < 200; ++i) {
        const LitmusTest t = generateTest(3, i);
        EXPECT_EQ(t.check(), std::nullopt)
            << t.name << ": " << t.check().value_or("");
        EXPECT_GE(t.threads.size(), 2u) << t.name;
        EXPECT_LE(t.threads.size(), 4u) << t.name;
        EXPECT_LE(t.locations.size(), 4u) << t.name;
        int loads = 0, stores = 0;
        for (const auto &prog : t.threads) {
            for (const auto &instr : prog.code) {
                loads += instr.isLoad();
                stores += instr.isStore();
            }
        }
        EXPECT_LE(loads, 4) << t.name;
        EXPECT_LE(stores, 4) << t.name;
        EXPECT_FALSE(t.regCond.empty() && t.memCond.empty()) << t.name;
        // Shape fingerprint: threads are stripped to opcode sequences.
        std::string shape;
        for (const auto &prog : t.threads) {
            for (const auto &instr : prog.code)
                shape += isa::opcodeName(instr.op) + ";";
            shape += "|";
        }
        shapes.insert(shape);
    }
    // The stream explores genuinely different program shapes.
    EXPECT_GT(shapes.size(), 40u);
}

TEST(Generator, TestFromCycleRefusesSpecsPastTheLoadBudget)
{
    // po x8, fre, po, rfe at one location: thread 0 would run nine
    // loads, the last two through address registers earlier loads
    // overwrote.  The lowering keeps the random generator's budgets.
    using Kind = litmus::CycleEdge::Kind;
    const litmus::CycleEdge po{Kind::Po, isa::FenceKind::SS, 0};
    const litmus::CycleEdge fre{Kind::Fre, isa::FenceKind::SS, 0};
    const litmus::CycleEdge rfe{Kind::Rfe, isa::FenceKind::SS, 0};
    std::vector<litmus::CycleEdge> spec(8, po);
    spec.insert(spec.end(), {fre, po, rfe});
    EXPECT_FALSE(litmus::testFromCycle("nine_loads", spec, 2));

    // Four loads on thread 0 still lower.
    std::vector<litmus::CycleEdge> within(3, po);
    within.insert(within.end(), {fre, po, rfe});
    EXPECT_TRUE(litmus::testFromCycle("four_loads", within, 2));
}

TEST(Generator, GeneratedTestsRoundTripThroughTheTextFormat)
{
    for (uint64_t i = 0; i < 50; ++i) {
        const LitmusTest t = generateTest(11, i);
        const std::string text = litmus::printLitmus(t);
        auto parsed = litmus::parseLitmus(text);
        ASSERT_TRUE(parsed) << t.name << ": "
                            << parsed.error.toString();
        EXPECT_EQ(text, litmus::printLitmus(*parsed)) << t.name;
    }
}

TEST(Generator, AnnotatedVerdictsMatchTheOperationalEngine)
{
    // annotateExpected() stamps axiomatic verdicts; the operational
    // engine must agree wherever the equivalence theorem promises
    // equality (everything but ARM, where the machine is conservative).
    const std::vector<model::ModelKind> equal_models = {
        model::ModelKind::SC, model::ModelKind::TSO,
        model::ModelKind::GAM0, model::ModelKind::GAM,
    };
    std::vector<LitmusTest> tests;
    for (uint64_t i = 0; i < 10; ++i) {
        tests.push_back(generateTest(5, i));
        harness::annotateExpected(tests.back(), equal_models);
    }
    const auto verdicts = harness::runLitmusMatrix(tests, equal_models);
    for (const auto &v : verdicts) {
        EXPECT_TRUE(v.matchesPaper())
            << v.test << " under " << model::modelName(v.model);
    }
}

} // namespace
} // namespace gam
