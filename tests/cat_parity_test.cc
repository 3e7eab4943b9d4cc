/**
 * Differential validation of the cat engine: outcome-set and verdict
 * parity with the hand-coded axiomatic checker on every built-in
 * litmus test, agreement with the operational explorer on generated
 * tests, decision-API integration (dispatch, caching, model-hash
 * keys), and the pinned per-model verdict corpus.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "axiomatic/checker.hh"
#include "cat/engine.hh"
#include "cat/parser.hh"
#include "harness/decision.hh"
#include "harness/fuzz.hh"
#include "harness/litmus_runner.hh"
#include "litmus/suite.hh"
#include "model/engine.hh"

namespace gam::harness
{
namespace
{

using model::Engine;
using model::ModelKind;

constexpr ModelKind catModels[] = {ModelKind::SC, ModelKind::TSO,
                                   ModelKind::GAM0, ModelKind::GAM};

Query
queryFor(const litmus::LitmusTest &test, ModelKind model,
         EngineSelect engine)
{
    Query q;
    q.test = &test;
    q.model = model;
    q.engine = engine;
    return q;
}

TEST(CatParity, OutcomeSetsEqualTheHandCodedCheckerOnAllBuiltins)
{
    // The acceptance bar: not just the verdicts -- the *full outcome
    // sets* of the model files must equal the hand-coded axioms on
    // every built-in test.
    DecisionCache cache;
    for (const auto &test : litmus::allTests()) {
        for (ModelKind model : catModels) {
            const Decision ax = decide(
                queryFor(test, model, EngineSelect::Axiomatic), &cache);
            const Decision ct = decide(
                queryFor(test, model, EngineSelect::Cat), &cache);
            EXPECT_EQ(ct.outcomes, ax.outcomes)
                << test.name << " " << model::modelName(model);
            EXPECT_EQ(ct.allowed, ax.allowed)
                << test.name << " " << model::modelName(model);
            EXPECT_EQ(ct.engine, Engine::Cat);
            EXPECT_TRUE(ct.complete);
            // Shared pruned enumeration: the model files express the
            // same constraints as the hand-coded axioms, so the two
            // engines' partial-candidate checks cut identical
            // subtrees and materialize the same complete candidates.
            EXPECT_EQ(ct.statesVisited, ax.statesVisited)
                << test.name << " " << model::modelName(model);
            EXPECT_EQ(ct.enumStats.subtreesSkipped,
                      ax.enumStats.subtreesSkipped)
                << test.name << " " << model::modelName(model);
        }
    }
}

TEST(CatParity, CatVersusOperationalFuzzFindsNoDivergence)
{
    FuzzOptions options;
    options.tests = 60;
    options.seed = 7;
    options.spec = Engine::Cat;
    const FuzzReport report = fuzzDifferential(options);
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_EQ(report.spec, Engine::Cat);
    // ARM has no cat model: 4 checks per test, not 5.
    EXPECT_EQ(report.checksRun, 60u * 4u);
    EXPECT_NE(report.toString().find("cat vs operational"),
              std::string::npos);
}

TEST(CatParity, MatrixGrowsCatRowsAndTheyMatchThePaper)
{
    const std::vector<litmus::LitmusTest> tests{
        litmus::testByName("mp"), litmus::testByName("lb")};
    const std::vector<ModelKind> models{ModelKind::SC, ModelKind::GAM};
    DecisionCache cache;
    MatrixOptions options;
    options.cache = &cache;
    const auto verdicts = runLitmusMatrix(tests, models, options);
    // Three engines support SC and GAM: 2 tests x 2 models x 3 rows.
    ASSERT_EQ(verdicts.size(), 12u);
    size_t cat_rows = 0;
    for (const auto &v : verdicts) {
        if (v.engine == Engine::Cat)
            ++cat_rows;
        EXPECT_TRUE(v.matchesPaper())
            << v.test << " " << model::modelName(v.model) << " "
            << model::engineName(v.engine);
    }
    EXPECT_EQ(cat_rows, 4u);

    MatrixOptions cat_only;
    cat_only.engine = EngineSelect::Cat;
    cat_only.cache = &cache;
    EXPECT_EQ(runLitmusMatrix(tests, models, cat_only).size(), 4u);
    // Models without a cat file are skipped, not asserted on.
    EXPECT_EQ(runLitmusMatrix(tests, {ModelKind::ARM}, cat_only).size(),
              0u);
}

TEST(CatParity, DecisionCacheKeysIncludeTheModelSourceHash)
{
    const auto &test = litmus::testByName("mp");
    const Query builtin = queryFor(test, ModelKind::GAM,
                                   EngineSelect::Cat);
    const uint64_t k = queryKey(builtin, Engine::Cat);
    EXPECT_NE(k, queryKey(builtin, Engine::Axiomatic));

    // A custom model otherwise identical to the builtin: one comment
    // changes the source hash, so it can never share a cache entry.
    const cat::CatModel &gam = cat::builtinCatModel(ModelKind::GAM);
    auto edited = cat::parseCat(gam.source + "\n// edited\n", "GAM");
    ASSERT_TRUE(edited.ok());
    Query custom = builtin;
    custom.catModel = &*edited.model;
    EXPECT_NE(queryKey(custom, Engine::Cat), k);

    // Same source -> same key (the pointer identity is irrelevant).
    auto same = cat::parseCat(gam.source, "GAM");
    ASSERT_TRUE(same.ok());
    Query alias = builtin;
    alias.catModel = &*same.model;
    EXPECT_EQ(queryKey(alias, Engine::Cat), k);

    // Warm decisions are identical to cold ones.
    DecisionCache cache;
    const Decision cold = decide(builtin, &cache);
    const Decision warm = decide(builtin, &cache);
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.outcomes, cold.outcomes);
    EXPECT_EQ(warm.allowed, cold.allowed);
}

TEST(CatParity, CustomModelsDecideThroughTheQueryApi)
{
    // A custom model under a kind the cat engine has no builtin for:
    // allowed because the query brings its own axioms.
    auto loose = cat::parseCat("\"everything-goes\"\n"
                               "irreflexive fr; po as LoadValue\n"
                               "irreflexive fr; co as Atomicity\n");
    ASSERT_TRUE(loose.ok());
    const auto &test = litmus::testByName("mp");
    Query q = queryFor(test, ModelKind::ARM, EngineSelect::Cat);
    q.catModel = &*loose.model;
    const Decision d = decide(q, nullptr);
    // With no InstOrder axiom at all, mp's non-SC outcome is allowed.
    EXPECT_TRUE(d.allowed);

    // The same model through the CatEngine directly agrees.
    cat::CatEngine engine(test, *loose.model);
    EXPECT_TRUE(engine.isAllowed());
    EXPECT_EQ(engine.enumerate(), d.outcomes);
}

TEST(CatParity, AxiomBeforeLetIsSafeAcrossEpochReuse)
{
    // Statement order must not matter for incremental evaluation: an
    // axiom failing before a later co-independent `let` once left that
    // let's slot stale (or sized for another epoch's event count) for
    // the next candidate.  dekker's branches make executed event
    // counts differ across rf epochs, which turned that staleness
    // into a universe-mismatch abort.
    auto odd = cat::parseCat(
        "\"odd-order\"\n"
        "acyclic co | (rf \\ po) | fr as CoherenceFirst\n"
        "let p = po & loc\n"
        "irreflexive p; fr as PerLoc\n");
    ASSERT_TRUE(odd.ok());
    auto canonical = cat::parseCat(
        "\"let-first\"\n"
        "let p = po & loc\n"
        "acyclic co | (rf \\ po) | fr as CoherenceFirst\n"
        "irreflexive p; fr as PerLoc\n");
    ASSERT_TRUE(canonical.ok());

    for (const char *name : {"dekker", "corw1", "mp_ctrl"}) {
        const auto &test = litmus::testByName(name);
        Query q = queryFor(test, ModelKind::GAM, EngineSelect::Cat);
        q.catModel = &*odd.model;
        const Decision d_odd = decide(q, nullptr);
        q.catModel = &*canonical.model;
        const Decision d_canonical = decide(q, nullptr);
        EXPECT_EQ(d_odd.outcomes, d_canonical.outcomes) << name;
        EXPECT_EQ(d_odd.allowed, d_canonical.allowed) << name;
    }
}

TEST(CatParity, AnEmptyLastThreadChangesNoOutcome)
{
    // An empty thread has no trace entries, so its first flat trace
    // position is the end of the per-candidate tables; the parser
    // accepts such a thread.  It must add nothing to any outcome set.
    const litmus::LitmusTest &mp = litmus::testByName("mp");
    litmus::LitmusTest test = mp;
    test.name = "mp+empty";
    test.threads.emplace_back();
    for (ModelKind model : catModels) {
        const cat::CatModel *m =
            cat::findBuiltinCatModel(model::modelName(model));
        ASSERT_NE(m, nullptr);
        const litmus::OutcomeSet expected =
            axiomatic::Checker(mp, model).enumerate();
        EXPECT_EQ(axiomatic::Checker(test, model).enumerate(), expected)
            << model::modelName(model);
        for (cat::CatEngine::Mode mode :
             {cat::CatEngine::Mode::Compiled,
              cat::CatEngine::Mode::Interpreted}) {
            cat::CatEngine engine(test, *m, {}, mode);
            EXPECT_EQ(engine.enumerate(), expected)
                << model::modelName(model);
        }
    }
}

TEST(CatParity, PinnedVerdictCorpusIsCompleteAndCurrent)
{
    // tests/corpus/cat_verdicts.txt pins "test model verdict" lines
    // for every built-in test under every cat model.  Regenerate by
    // pasting the computed text this test prints on mismatch.
    std::ifstream in(std::string(GAM_CORPUS_DIR) + "/cat_verdicts.txt");
    ASSERT_TRUE(in.good()) << "missing tests/corpus/cat_verdicts.txt";
    std::map<std::pair<std::string, std::string>, std::string> pinned;
    std::string test_name, model_name, verdict;
    while (in >> test_name >> model_name >> verdict)
        pinned[{test_name, model_name}] = verdict;

    DecisionCache cache;
    std::string computed;
    size_t mismatches = 0;
    for (const auto &test : litmus::allTests()) {
        for (ModelKind model : catModels) {
            const Decision d =
                decide(queryFor(test, model, EngineSelect::Cat),
                       &cache);
            const std::string got = d.allowed ? "allowed" : "forbidden";
            computed += test.name + " " + model::modelName(model) + " "
                + got + "\n";
            auto it = pinned.find({test.name,
                                   model::modelName(model)});
            if (it == pinned.end() || it->second != got)
                ++mismatches;
        }
    }
    const size_t expected =
        litmus::allTests().size() * std::size(catModels);
    EXPECT_EQ(pinned.size(), expected)
        << "corpus must cover every (test, model) pair";
    EXPECT_EQ(mismatches, 0u)
        << "verdicts drifted; expected corpus content:\n" << computed;
}

} // namespace
} // namespace gam::harness
