/**
 * @file
 * The model compiler (cat/compile.hh), differentially validated.
 *
 * Three pipelines decide every builtin litmus test under every
 * cat-supported model: the compiled plan, the interpreting evaluator,
 * and the hand-coded axiomatic checker.  They must agree on the full
 * outcome set, and the compiled filter's work accounting must match
 * the interpreter's exactly where the enumeration makes it invariant:
 * the leaf count coCandidates + subtreesSkipped is a property of the
 * candidate space, not of the filter, while coCandidates itself may
 * only *shrink* (the compiled filter installs the epoch-constant
 * from-read edges of init-reading loads at beginRf, so it prunes no
 * later than the interpreter anywhere).
 *
 * Plan introspection pins the shipped models to the passes the
 * compiler is supposed to reach: everything fused, accept() O(1).  A
 * fixed-seed generated-test smoke run uses the compiled engine as the
 * spec against the hand-coded checker.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "axiomatic/checker.hh"
#include "cat/compile.hh"
#include "cat/engine.hh"
#include "cat/parser.hh"
#include "litmus/generator.hh"
#include "litmus/suite.hh"
#include "model/kind.hh"

namespace gam
{
namespace
{

using cat::CatEngine;
using cat::CompiledAxiom;
using model::ModelKind;

constexpr ModelKind kCatModels[] = {ModelKind::SC, ModelKind::TSO,
                                    ModelKind::GAM0, ModelKind::GAM};

/** Enumerate @p test with the given engine mode; stats out-param. */
litmus::OutcomeSet
runCat(const litmus::LitmusTest &test, const cat::CatModel &model,
       CatEngine::Mode mode, axiomatic::CheckerStats *stats = nullptr)
{
    CatEngine engine(test, model, {}, mode);
    litmus::OutcomeSet outcomes = engine.enumerate();
    if (stats)
        *stats = engine.stats();
    return outcomes;
}

TEST(CatCompile, ShippedModelsCompileFullyIncremental)
{
    for (ModelKind kind : kCatModels) {
        SCOPED_TRACE(model::modelName(kind));
        const auto plan =
            cat::compileCatModel(cat::builtinCatModel(kind));

        EXPECT_TRUE(plan->fullyIncremental);
        // Shipped definitions never mention co or fr: every stratum
        // evaluates directly, once per rf epoch, and nothing needs a
        // fold slot (constants fold at the axiom level instead).
        for (const cat::Stratum &s : plan->strata) {
            EXPECT_FALSE(s.fixpoint);
            EXPECT_EQ(s.polarity, cat::Polarity::Independent);
        }
        EXPECT_TRUE(plan->foldExprs.empty());
        EXPECT_EQ(plan->totalSlots, plan->model->slotCount);

        // acyclic ppo | co | (rf \ po) | fr -> fused reachability
        // with two constant parts; the two irreflexive axioms become
        // per-edge guards (fr;po transposed against po, fr;co
        // transposed against co).
        ASSERT_EQ(plan->axioms.size(), 3u);
        const CompiledAxiom &order = plan->axioms[0];
        EXPECT_EQ(order.pass, CompiledAxiom::Pass::FusedAcyclic);
        EXPECT_EQ(order.constParts.size(), 2u);
        EXPECT_TRUE(order.usesCo);
        EXPECT_TRUE(order.usesFr);

        const CompiledAxiom &loadValue = plan->axioms[1];
        EXPECT_EQ(loadValue.pass, CompiledAxiom::Pass::EdgeGuard);
        EXPECT_EQ(loadValue.guardX.kind,
                  CompiledAxiom::Operand::Kind::Fr);
        EXPECT_EQ(loadValue.guardY.kind,
                  CompiledAxiom::Operand::Kind::Const);
        EXPECT_TRUE(loadValue.guardYTransposed);

        const CompiledAxiom &atomicity = plan->axioms[2];
        EXPECT_EQ(atomicity.pass, CompiledAxiom::Pass::EdgeGuard);
        EXPECT_EQ(atomicity.guardX.kind,
                  CompiledAxiom::Operand::Kind::Fr);
        EXPECT_EQ(atomicity.guardY.kind,
                  CompiledAxiom::Operand::Kind::Co);
        EXPECT_TRUE(atomicity.guardYTransposed);
    }
}

TEST(CatCompile, DescribeRendersThePlan)
{
    const auto plan =
        cat::compileCatModel(cat::builtinCatModel(ModelKind::GAM));
    const std::string text = plan->describe();
    EXPECT_NE(text.find("fused-acyclic"), std::string::npos) << text;
    EXPECT_NE(text.find("edge-guard"), std::string::npos) << text;
    EXPECT_NE(text.find("rf \\ po"), std::string::npos) << text;
    EXPECT_NE(text.find("fully incremental"), std::string::npos)
        << text;
}

TEST(CatCompile, OutcomesMatchInterpreterAndCheckerOnAllBuiltins)
{
    for (const litmus::LitmusTest &test : litmus::allTests()) {
        for (ModelKind kind : kCatModels) {
            SCOPED_TRACE(test.name + " under "
                         + model::modelName(kind));
            const cat::CatModel &m = cat::builtinCatModel(kind);

            axiomatic::CheckerStats compiled_stats, interp_stats;
            const litmus::OutcomeSet compiled = runCat(
                test, m, CatEngine::Mode::Compiled, &compiled_stats);
            const litmus::OutcomeSet interp =
                runCat(test, m, CatEngine::Mode::Interpreted,
                       &interp_stats);
            axiomatic::Checker checker(test, kind);
            const litmus::OutcomeSet reference = checker.enumerate();

            EXPECT_EQ(compiled, interp);
            EXPECT_EQ(compiled, reference);

            // Work accounting.  The candidate space is fixed by the
            // test, so the counters that describe *it* must agree
            // exactly; the compiled filter may prune earlier (never
            // later), so the leaves it materializes can only shrink.
            EXPECT_EQ(compiled_stats.rfCandidates,
                      interp_stats.rfCandidates);
            EXPECT_EQ(compiled_stats.valueConsistent,
                      interp_stats.valueConsistent);
            EXPECT_EQ(compiled_stats.accepted, interp_stats.accepted);
            EXPECT_LE(compiled_stats.coCandidates,
                      interp_stats.coCandidates);
            EXPECT_EQ(compiled_stats.coCandidates
                          + compiled_stats.subtreesSkipped,
                      interp_stats.coCandidates
                          + interp_stats.subtreesSkipped);
        }
    }
}

TEST(CatCompile, SccRefinementBeatsGroupCoarsePolarity)
{
    // The parser taints whole `let rec` groups: one co mention makes
    // every member Monotone.  The compiler re-runs the polarity
    // dataflow per Tarjan SCC, so the co-free member here refines
    // back to Independent -- which is what lets the axiom fuse.
    const auto parsed = cat::parseCat("let rec a = (po; a) | po\n"
                                      "and b = (co; b) | co\n"
                                      "acyclic a | co as Ax\n",
                                      "sccref");
    ASSERT_TRUE(parsed.ok()) << parsed.error.toString();
    const auto plan = cat::compileCatModel(*parsed.model);

    EXPECT_TRUE(plan->fullyIncremental);
    // Liveness keeps whole `let rec` groups together, so both
    // recursions get strata -- but as *separate* SCCs with their own
    // refined polarity: a is Independent despite the group taint.
    ASSERT_EQ(plan->strata.size(), 2u);
    int independent = 0, monotone = 0;
    for (const cat::Stratum &s : plan->strata) {
        EXPECT_TRUE(s.fixpoint);
        if (s.polarity == cat::Polarity::Independent)
            ++independent;
        else if (s.polarity == cat::Polarity::Monotone)
            ++monotone;
    }
    EXPECT_EQ(independent, 1);
    EXPECT_EQ(monotone, 1);
    ASSERT_EQ(plan->axioms.size(), 1u);
    EXPECT_EQ(plan->axioms[0].pass,
              CompiledAxiom::Pass::FusedAcyclic);
    EXPECT_EQ(plan->axioms[0].constParts.size(), 1u);
    EXPECT_TRUE(plan->axioms[0].usesCo);
    EXPECT_FALSE(plan->axioms[0].usesFr);

    // And the recursion still evaluates correctly end to end.
    for (const char *name : {"mp", "lb", "corr"}) {
        const litmus::LitmusTest *test = litmus::findTest(name);
        ASSERT_NE(test, nullptr) << name;
        EXPECT_EQ(runCat(*test, *parsed.model,
                         CatEngine::Mode::Compiled),
                  runCat(*test, *parsed.model,
                         CatEngine::Mode::Interpreted))
            << name;
    }
}

TEST(CatCompile, ConstantFoldingInHybridPlans)
{
    // A coherence-dependent definition with an Independent subtree:
    // the axiom cannot fuse (the union part is neither constant nor
    // bare co/fr), so the plan goes hybrid -- and [M]; po; [M] gets a
    // fold slot, evaluated once per rf epoch instead of once per
    // coherence candidate.
    const auto parsed =
        cat::parseCat("let slow = (([M]; po; [M]); co)\n"
                      "acyclic slow | fr as Order\n",
                      "hybrid");
    ASSERT_TRUE(parsed.ok()) << parsed.error.toString();
    const auto plan = cat::compileCatModel(*parsed.model);

    EXPECT_FALSE(plan->fullyIncremental);
    ASSERT_EQ(plan->axioms.size(), 1u);
    EXPECT_EQ(plan->axioms[0].pass, CompiledAxiom::Pass::Partial);
    ASSERT_EQ(plan->foldExprs.size(), 1u);
    EXPECT_EQ(cat::exprToString(*plan->foldExprs[0]),
              "[M]; po; [M]");
    EXPECT_EQ(plan->totalSlots, plan->model->slotCount + 1);

    for (const char *name : {"mp", "lb", "corw1"}) {
        const litmus::LitmusTest *test = litmus::findTest(name);
        ASSERT_NE(test, nullptr) << name;
        EXPECT_EQ(runCat(*test, *parsed.model,
                         CatEngine::Mode::Compiled),
                  runCat(*test, *parsed.model,
                         CatEngine::Mode::Interpreted))
            << name;
    }
}

TEST(CatCompile, FuzzSmokeCompiledEngineAsSpec)
{
    // Fixed-seed generated stream, compiled engine as the spec: every
    // outcome set must equal the hand-coded GAM checker's over the
    // same candidate enumeration.
    constexpr uint64_t kSeed = 20260808;
    constexpr int kTests = 300;
    const cat::CatModel &m = cat::builtinCatModel(ModelKind::GAM);
    for (int i = 0; i < kTests; ++i) {
        const litmus::LitmusTest test =
            litmus::generateTest(kSeed, uint64_t(i));
        SCOPED_TRACE(test.name);
        const litmus::OutcomeSet compiled =
            runCat(test, m, CatEngine::Mode::Compiled);
        axiomatic::Checker checker(test, ModelKind::GAM);
        EXPECT_EQ(compiled, checker.enumerate());
    }
}

} // namespace
} // namespace gam
