/**
 * @file
 * Differential soundness tests for the static litmus pre-screen
 * (analysis/prescreen.hh) and its decide() integration.
 *
 * The pre-screen may only ever short-circuit a decision to the answer
 * the real engine would have produced.  The tests here enforce that
 * exhaustively on the built-in corpus (every test x every model x both
 * enumeration engines) and statistically on a fixed-seed generator
 * sweep, with fresh caches on both sides so no memoized result can
 * paper over a divergence.  They also pin exactly how often each
 * short-circuit fires on both sweeps: a pre-screen that never triggers
 * would pass every soundness check vacuously, and a rewrite that stays
 * sound but screens less would silently give up its savings.
 */

#include <gtest/gtest.h>

#include "analysis/prescreen.hh"
#include "harness/decision.hh"
#include "harness/litmus_runner.hh"
#include "litmus/generator.hh"
#include "litmus/suite.hh"
#include "model/engine.hh"

namespace
{

using gam::analysis::prescreen;
using gam::analysis::PrescreenVerdict;
using gam::harness::Decision;
using gam::harness::DecisionCache;
using gam::harness::EngineSelect;
using gam::harness::PrescreenKind;
using gam::harness::Query;
using gam::model::Engine;
using gam::model::ModelKind;

const std::vector<ModelKind> kModels = {
    ModelKind::SC, ModelKind::TSO, ModelKind::GAM0, ModelKind::GAM};

/**
 * Decide @p test with the pre-screen on and off (separate fresh
 * caches) and fail on any divergence.  Returns the on-side decision
 * so callers can aggregate hit counts.
 */
Decision
checkOne(const gam::litmus::LitmusTest &test, ModelKind model,
         EngineSelect engine, DecisionCache *on_cache,
         DecisionCache *off_cache)
{
    Query query;
    query.test = &test;
    query.model = model;
    query.engine = engine;

    query.options.prescreen = true;
    const Decision on = gam::harness::decide(query, on_cache);
    query.options.prescreen = false;
    const Decision off = gam::harness::decide(query, off_cache);

    EXPECT_EQ(on.allowed, off.allowed)
        << test.name << " under " << gam::model::modelName(model)
        << " (" << gam::model::engineName(off.engine) << "): "
        << "prescreen=" << prescreenKindName(on.prescreened);
    EXPECT_TRUE(on.complete);
    EXPECT_TRUE(off.complete);
    // An SC-delegated decision claims the full outcome set; hold it to
    // that.  (ValueCover decisions carry no outcomes by construction.)
    if (on.prescreened == PrescreenKind::ScDelegate) {
        EXPECT_EQ(on.outcomes, off.outcomes) << test.name;
    }
    return on;
}

/** How many decisions each short-circuit answered. */
struct ScreenCounts
{
    size_t decisions = 0;
    size_t valueCover = 0;
    size_t scDelegate = 0;

    void
    count(const Decision &d)
    {
        ++decisions;
        valueCover += d.prescreened == PrescreenKind::ValueCover;
        scDelegate += d.prescreened == PrescreenKind::ScDelegate;
    }
};

TEST(Prescreen, SoundOnBuiltinCorpusBothEngines)
{
    ScreenCounts counts;
    for (const EngineSelect engine :
         {EngineSelect::Axiomatic, EngineSelect::Cat}) {
        DecisionCache on_cache;
        DecisionCache off_cache;
        for (const auto &test : gam::litmus::allTests()) {
            for (ModelKind model : kModels) {
                const Engine resolved =
                    engine == EngineSelect::Axiomatic ? Engine::Axiomatic
                                                      : Engine::Cat;
                if (!gam::model::supportsEngine(model, resolved))
                    continue;
                counts.count(checkOne(test, model, engine, &on_cache,
                                      &off_cache));
            }
        }
    }
    // 102 of 232 decisions short-circuited.
    EXPECT_EQ(counts.decisions, 232u);
    EXPECT_EQ(counts.valueCover, 8u);
    EXPECT_EQ(counts.scDelegate, 94u);
}

TEST(Prescreen, SoundOnBuiltinCorpusUnderEveryAxiomaticModel)
{
    // ARM and PerLocSC too, through the axiomatic engine: no builtin
    // may change its verdict when the prescreen is switched on.
    // PerLocSC admits out-of-thin-air candidates, so oota is allowed
    // under it although no store writes the value 42 it reads.
    DecisionCache on_cache;
    DecisionCache off_cache;
    for (const auto &test : gam::litmus::allTests()) {
        for (ModelKind model : gam::model::axiomaticModels) {
            const Decision on = checkOne(test, model,
                                         EngineSelect::Axiomatic,
                                         &on_cache, &off_cache);
            if (model == ModelKind::PerLocSC) {
                EXPECT_EQ(on.prescreened, PrescreenKind::None)
                    << test.name;
            }
        }
    }
    EXPECT_EQ(prescreen(gam::litmus::testByName("oota"),
                        ModelKind::PerLocSC)
                  .verdict,
              PrescreenVerdict::Unknown);
    EXPECT_EQ(prescreen(gam::litmus::testByName("oota"), ModelKind::GAM)
                  .verdict,
              PrescreenVerdict::Forbidden);
}

TEST(Prescreen, SoundOnGeneratedTests)
{
    constexpr uint64_t kSeed = 20260808;
    constexpr uint64_t kTests = 500;
    DecisionCache on_cache;
    DecisionCache off_cache;
    ScreenCounts counts;
    for (uint64_t i = 0; i < kTests; ++i) {
        const gam::litmus::LitmusTest test =
            gam::litmus::generateTest(kSeed, i);
        ASSERT_FALSE(test.check().has_value()) << test.name;
        for (ModelKind model : kModels) {
            counts.count(checkOne(test, model, EngineSelect::Axiomatic,
                                  &on_cache, &off_cache));
        }
    }
    // 837 of 2000 decisions short-circuited, all by SC delegation: a
    // generated condition only asks for values the test's stores or
    // its initial memory hold, so no value cover can fire.
    EXPECT_EQ(counts.decisions, 2000u);
    EXPECT_EQ(counts.valueCover, 0u);
    EXPECT_EQ(counts.scDelegate, 837u);
}

// The analysis layer's own verdicts, independent of decide():
// spot-check the two short-circuit shapes on corpus tests whose
// structure forces them.
TEST(Prescreen, ValueCoverRejectsUnsatisfiableFinals)
{
    // mp asks for r1=1, r2=0 -- satisfiable, so no value-cover claim;
    // rewriting the condition to a value no store writes must trip it.
    for (const auto &test : gam::litmus::allTests()) {
        if (test.name != "mp")
            continue;
        gam::litmus::LitmusTest bogus = test;
        ASSERT_FALSE(bogus.regCond.empty());
        bogus.regCond[0].value = 0x7777; // nothing ever stores this
        const auto r = prescreen(bogus, ModelKind::GAM);
        EXPECT_EQ(r.verdict, PrescreenVerdict::Forbidden) << r.detail;
        const auto sane = prescreen(test, ModelKind::GAM);
        EXPECT_NE(sane.verdict, PrescreenVerdict::Forbidden);
        return;
    }
    FAIL() << "builtin test 'mp' not found";
}

TEST(Prescreen, ScDelegateOnFullyFencedTests)
{
    // Every po-adjacent pair in mp_fenced and iriw_fenced is ordered
    // by a fence, so GAM's ppo provably covers po and the outcome set
    // equals SC's.
    size_t found = 0;
    for (const auto &test : gam::litmus::allTests()) {
        if (test.name != "mp_fenced" && test.name != "iriw_fenced")
            continue;
        ++found;
        const auto r = prescreen(test, ModelKind::GAM);
        EXPECT_EQ(r.verdict, PrescreenVerdict::ScEquivalent)
            << test.name << ": " << r.detail;
    }
    EXPECT_EQ(found, 2u);
}

TEST(Prescreen, UnknownModelsNeverDelegate)
{
    // ARM's operational outcomes are conservative (not exact), so the
    // delegate path must not claim outcome equality for it.
    for (const auto &test : gam::litmus::allTests()) {
        const auto r = prescreen(test, ModelKind::ARM);
        EXPECT_NE(r.verdict, PrescreenVerdict::ScEquivalent)
            << test.name;
    }
}

} // namespace
