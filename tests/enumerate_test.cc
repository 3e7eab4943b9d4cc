/**
 * Differential validation of the incremental pruned enumeration
 * (axiomatic/enumerate.hh) against the legacy enumerate-then-check
 * pipeline: outcome-set parity on every built-in test under every
 * model for both the hand-coded checker and the cat engine, exact
 * work accounting (every candidate the pruned search skips is counted
 * as skipped), fused-lane parity with the one-filter walk, the static
 * read-from feasibility analysis, a fixed-seed fuzz smoke, and the
 * 4-thread IRIW/WRC+/W+RWC acceptance bar.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "axiomatic/checker.hh"
#include "cat/engine.hh"
#include "harness/decision.hh"
#include "harness/litmus_runner.hh"
#include "litmus/generator.hh"
#include "litmus/parser.hh"
#include "litmus/suite.hh"
#include "model/engine.hh"

namespace gam::axiomatic
{
namespace
{

using litmus::LitmusTest;
using model::ModelKind;

constexpr ModelKind catModels[] = {ModelKind::SC, ModelKind::TSO,
                                   ModelKind::GAM0, ModelKind::GAM};

/** Every model the axiomatic checker supports. */
std::vector<ModelKind>
axiomaticModels()
{
    std::vector<ModelKind> out;
    for (ModelKind kind : model::allModelKinds)
        if (model::supportsEngine(kind, model::Engine::Axiomatic))
            out.push_back(kind);
    return out;
}

TEST(Enumerate, PrunedMatchesLegacyOnAllBuiltinsEveryModel)
{
    const std::vector<ModelKind> models = axiomaticModels();
    for (const LitmusTest &test : litmus::allTests()) {
        // Every model once more as one lane of a single fused walk,
        // with a shared ppo cache, as the batched pipeline runs them.
        CandidateEnumerator enumerator(test, {});
        PpoCache ppoShapes;
        std::vector<CheckerStats> laneStats;
        const std::vector<litmus::OutcomeSet> lanes = enumerateModels(
            enumerator, models, &laneStats, &ppoShapes);
        ASSERT_EQ(lanes.size(), models.size()) << test.name;
        ASSERT_EQ(laneStats.size(), models.size()) << test.name;

        for (size_t m = 0; m < models.size(); ++m) {
            const ModelKind model = models[m];
            Checker legacy(test, model);
            const litmus::OutcomeSet expect = legacy.enumerateLegacy();
            Checker pruned(test, model);
            const litmus::OutcomeSet got = pruned.enumerate();
            EXPECT_EQ(got, expect)
                << test.name << " " << model::modelName(model);

            // Exact work accounting: every complete candidate is
            // either materialized or counted as skipped...
            const CheckerStats &ls = legacy.stats();
            const CheckerStats &ps = pruned.stats();
            EXPECT_EQ(ps.coCandidates + ps.subtreesSkipped,
                      ls.coCandidates)
                << test.name << " " << model::modelName(model);
            // ... and every read-from map is either tried or
            // statically skipped (static skips are value-inconsistent,
            // so they contribute no candidates above).
            EXPECT_EQ(ps.rfCandidates + ps.rfStaticSkipped,
                      ls.rfCandidates)
                << test.name << " " << model::modelName(model);
            EXPECT_EQ(ps.valueConsistent, ls.valueConsistent)
                << test.name << " " << model::modelName(model);
            EXPECT_EQ(ps.accepted, ls.accepted);

            // The fused lane decides and counts exactly as the
            // one-filter walk, whatever the other lanes veto.
            EXPECT_EQ(lanes[m], expect)
                << test.name << " " << model::modelName(model);
            const CheckerStats &fs = laneStats[m];
            EXPECT_EQ(fs.coCandidates, ps.coCandidates)
                << test.name << " " << model::modelName(model);
            EXPECT_EQ(fs.subtreesSkipped, ps.subtreesSkipped)
                << test.name << " " << model::modelName(model);
            EXPECT_EQ(fs.partialsPruned, ps.partialsPruned)
                << test.name << " " << model::modelName(model);
            EXPECT_EQ(fs.accepted, ps.accepted)
                << test.name << " " << model::modelName(model);
        }
    }
}

TEST(Enumerate, CatEngineMatchesItsLegacyPathOnAllBuiltins)
{
    for (const LitmusTest &test : litmus::allTests()) {
        for (ModelKind model : catModels) {
            const cat::CatModel &cm = cat::builtinCatModel(model);
            cat::CatEngine legacy(test, cm);
            const litmus::OutcomeSet expect = legacy.enumerateLegacy();
            cat::CatEngine pruned(test, cm);
            const litmus::OutcomeSet got = pruned.enumerate();
            EXPECT_EQ(got, expect)
                << test.name << " " << model::modelName(model);
            EXPECT_EQ(pruned.stats().coCandidates
                          + pruned.stats().subtreesSkipped,
                      legacy.stats().coCandidates)
                << test.name << " " << model::modelName(model);
        }
    }
}

TEST(Enumerate, StaticFeasibilityPrunesConstantAddressesOnly)
{
    // mp: two loads, two stores to distinct constant addresses -- each
    // load keeps InitStore plus its own same-address store.
    {
        CandidateBuilder builder(litmus::testByName("mp"), {});
        ASSERT_EQ(builder.rfChoices().size(), 2u);
        for (const auto &choices : builder.rfChoices())
            EXPECT_EQ(choices.size(), 2u);
        EXPECT_GT(builder.rfStaticSkipped(), 0u);
    }
    // mp_addr: the second load's address depends on the first load's
    // value, so the analysis must keep every source for it.
    {
        const LitmusTest &test = litmus::testByName("mp_addr");
        CandidateBuilder builder(test, {});
        size_t stores = builder.storeSites().size();
        bool any_full = false;
        for (const auto &choices : builder.rfChoices())
            any_full |= choices.size() == stores + 1;
        EXPECT_TRUE(any_full)
            << "dependent-address load lost feasible sources";
    }
}

TEST(Enumerate, PruningActuallyPrunes)
{
    // Under SC almost every interleaving-violating candidate dies
    // early: the pruned search must materialize strictly fewer
    // complete candidates than the legacy pipeline on iriw.
    const LitmusTest &test = litmus::testByName("iriw");
    Checker legacy(test, ModelKind::SC);
    legacy.enumerateLegacy();
    Checker pruned(test, ModelKind::SC);
    pruned.enumerate();
    EXPECT_LT(pruned.stats().coCandidates,
              legacy.stats().coCandidates);
    EXPECT_GT(pruned.stats().subtreesSkipped
                  + pruned.stats().rfStaticSkipped,
              0u);
}

TEST(Enumerate, FuzzSmokeNewVersusLegacyAtFixedSeed)
{
    // A deterministic mini-campaign: generated tests, both engines,
    // new vs legacy outcome parity under every cat model.
    constexpr uint64_t seed = 31;
    for (uint64_t i = 0; i < 25; ++i) {
        const LitmusTest test = litmus::generateTest(seed, i);
        ASSERT_FALSE(test.check().has_value()) << *test.check();
        for (ModelKind model : catModels) {
            Checker legacy(test, model);
            const litmus::OutcomeSet expect = legacy.enumerateLegacy();
            Checker pruned(test, model);
            EXPECT_EQ(pruned.enumerate(), expect)
                << "seed " << seed << " index " << i << " "
                << model::modelName(model);
        }
        // The cat engine on a sample of the stream (it costs ~2x).
        if (i % 5 == 0) {
            const cat::CatModel &cm =
                cat::builtinCatModel(ModelKind::GAM);
            cat::CatEngine legacy_cat(test, cm);
            cat::CatEngine pruned_cat(test, cm);
            EXPECT_EQ(pruned_cat.enumerate(),
                      legacy_cat.enumerateLegacy())
                << "seed " << seed << " index " << i;
        }
    }
}

TEST(Enumerate, FourThreadSuiteShapes)
{
    const auto &suite = litmus::fourThreadSuite();
    ASSERT_EQ(suite.size(), 8u);
    std::set<std::string> names;
    for (const LitmusTest &test : suite) {
        EXPECT_FALSE(test.check().has_value())
            << test.name << ": " << *test.check();
        names.insert(test.name);
    }
    EXPECT_EQ(names.size(), suite.size()) << "duplicate names";

    // The IRIW family is genuinely 4-threaded; WRC/W+RWC are 3.
    for (const char *name : {"iriw_pos", "iriw_addrs", "iriw_fences",
                             "wrc_coe_w"}) {
        const auto it = std::find_if(
            suite.begin(), suite.end(),
            [&](const LitmusTest &t) { return t.name == name; });
        ASSERT_NE(it, suite.end()) << name;
        EXPECT_EQ(it->threads.size(), 4u) << name;
    }
}

TEST(Enumerate, FourThreadCorpusIsPinnedAndCurrent)
{
    // tests/corpus/<name>.litmus pins each named-family test with its
    // per-model verdicts.  Regenerate with
    // `gam-litmus gen --four-thread --out tests/corpus` on mismatch.
    const std::vector<ModelKind> models(std::begin(catModels),
                                        std::end(catModels));
    for (LitmusTest test : litmus::fourThreadSuite()) {
        harness::annotateExpected(test, models);
        const std::string path = std::string(GAM_CORPUS_DIR) + "/"
            + test.name + ".litmus";
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << "missing pinned corpus file " << path;
        std::ostringstream pinned;
        pinned << in.rdbuf();
        EXPECT_EQ(pinned.str(), litmus::printLitmus(test))
            << path << " is stale";
    }
}

TEST(Enumerate, TestFromCycleRejectsUnrealisableSpecs)
{
    using K = litmus::CycleEdge;
    // One communication edge only: no cycle across threads.
    EXPECT_FALSE(litmus::testFromCycle(
        "bad", {{K::Kind::Rfe}, {K::Kind::Po}, {K::Kind::Po}}, 2));
    // A location walk that does not close.
    EXPECT_FALSE(litmus::testFromCycle(
        "bad",
        {{K::Kind::Rfe}, {K::Kind::Po, isa::FenceKind::SS, 1},
         {K::Kind::Fre}},
        2));
    // Too short.
    EXPECT_FALSE(litmus::testFromCycle(
        "bad", {{K::Kind::Rfe}, {K::Kind::Fre}}, 2));
}

TEST(Enumerate, FourThreadIriwDecidedCompleteByBothEngines)
{
    // The acceptance bar: a 4-thread IRIW-family test decided to
    // completion by the axiomatic *and* cat engines within default
    // budgets, with the expected per-model verdicts.
    const auto &suite = litmus::fourThreadSuite();
    const auto iriw = std::find_if(
        suite.begin(), suite.end(),
        [](const LitmusTest &t) { return t.name == "iriw_pos"; });
    ASSERT_NE(iriw, suite.end());

    const std::map<ModelKind, bool> expect = {
        {ModelKind::SC, false},
        {ModelKind::TSO, false},
        {ModelKind::GAM0, true},
        {ModelKind::GAM, true},
    };
    harness::DecisionCache cache;
    for (auto [model, allowed] : expect) {
        for (auto engine : {harness::EngineSelect::Axiomatic,
                            harness::EngineSelect::Cat}) {
            harness::Query query;
            query.test = &*iriw;
            query.model = model;
            query.engine = engine;
            const harness::Decision d = harness::decide(query, &cache);
            EXPECT_TRUE(d.complete)
                << model::modelName(model) << " "
                << model::engineName(d.engine);
            EXPECT_EQ(d.allowed, allowed)
                << model::modelName(model) << " "
                << model::engineName(d.engine);
            EXPECT_TRUE(
                model::engineUsesCandidateEnumeration(d.engine));
            EXPECT_GT(d.enumStats.rfCandidates, 0u);
        }
    }
}

TEST(Enumerate, DecisionCarriesEnumerationCounters)
{
    const LitmusTest &test = litmus::testByName("iriw");
    harness::DecisionCache cache;
    harness::Query query;
    query.test = &test;
    query.model = ModelKind::SC;
    query.engine = harness::EngineSelect::Axiomatic;
    const harness::Decision cold = harness::decide(query, &cache);
    EXPECT_GT(cold.enumStats.rfCandidates, 0u);
    EXPECT_GT(cold.enumStats.subtreesSkipped
                  + cold.enumStats.rfStaticSkipped,
              0u);
    // Cached decisions replay the counters of the producing run.
    const harness::Decision warm = harness::decide(query, &cache);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.enumStats.rfCandidates, cold.enumStats.rfCandidates);
    EXPECT_EQ(warm.enumStats.subtreesSkipped,
              cold.enumStats.subtreesSkipped);

    // Operational decisions carry no enumeration counters.
    query.engine = harness::EngineSelect::Operational;
    const harness::Decision op = harness::decide(query, &cache);
    EXPECT_EQ(op.enumStats.rfCandidates, 0u);
    EXPECT_EQ(op.enumStats.coCandidates, 0u);
}

TEST(Enumerate, PpoCacheKeysGamOnThreadShapesAlone)
{
    // mp's threads execute the same instructions at the same addresses
    // under every rf candidate, and GAM's ppo reads nothing else: the
    // shared cache keeps one entry per distinct thread shape (mp's two
    // threads differ), however many candidates the walk visits.
    const LitmusTest &test = litmus::testByName("mp");
    CandidateEnumerator enumerator(test, {});
    PpoCache cache;
    std::vector<CheckerStats> stats;
    const std::vector<litmus::OutcomeSet> sets = enumerateModels(
        enumerator, {ModelKind::GAM}, &stats, &cache);
    ASSERT_EQ(sets.size(), 1u);
    EXPECT_EQ(sets[0], Checker(test, ModelKind::GAM).enumerate());
    EXPECT_GT(stats[0].valueConsistent, 2u);
    EXPECT_EQ(cache.shapes.size(), 2u);
    // Every value-consistent candidate asks once per thread.
    EXPECT_EQ(cache.lookups,
              stats[0].valueConsistent * test.threads.size());
}

TEST(Enumerate, PpoCacheKeysArmOnReadFromSourcesToo)
{
    // corr (Fig. 14a): SALdLdARM orders the reader's two same-address
    // loads only when they read different stores, so under ARM that
    // thread keeps one entry per rf assignment (plus one for the
    // writer, which reads nothing), while GAM, in the same walk and
    // the same cache, keeps one per thread.
    const LitmusTest &test = litmus::testByName("corr");
    CandidateEnumerator enumerator(test, {});
    PpoCache cache;
    std::vector<CheckerStats> stats;
    const std::vector<litmus::OutcomeSet> sets = enumerateModels(
        enumerator, {ModelKind::ARM, ModelKind::GAM}, &stats, &cache);
    ASSERT_EQ(sets.size(), 2u);
    EXPECT_EQ(sets[0], Checker(test, ModelKind::ARM).enumerate());
    EXPECT_EQ(sets[1], Checker(test, ModelKind::GAM).enumerate());
    // Both loads read the initial value or the one store: four
    // assignments, all value-consistent.
    EXPECT_EQ(stats[0].valueConsistent, 4u);
    size_t arm = 0, gam = 0;
    for (const auto &[key, pairs] : cache.shapes)
        ++(key.model == ModelKind::ARM ? arm : gam);
    EXPECT_EQ(arm, stats[0].valueConsistent + 1);
    EXPECT_EQ(gam, 2u);
}

} // namespace
} // namespace gam::axiomatic
