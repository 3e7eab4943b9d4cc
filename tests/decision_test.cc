/**
 * Tests for the unified decide(Query) -> Decision API: engine
 * registry/capability introspection, parity with the engines invoked
 * directly, and the correctness of the memoizing DecisionCache.
 */

#include <atomic>
#include <set>

#include <gtest/gtest.h>

#include "axiomatic/checker.hh"
#include "base/hashing.hh"
#include "base/thread_pool.hh"
#include "harness/decision.hh"
#include "harness/litmus_runner.hh"
#include "litmus/suite.hh"
#include "model/engine.hh"
#include "operational/explorer.hh"
#include "operational/gam_machine.hh"
#include "operational/inorder_machine.hh"

namespace gam::harness
{
namespace
{

using model::Engine;
using model::ModelKind;

constexpr ModelKind allModels[] = {
    ModelKind::SC,   ModelKind::TSO,       ModelKind::GAM0,
    ModelKind::GAM,  ModelKind::ARM,       ModelKind::AlphaStar,
    ModelKind::PerLocSC,
};

/** The engines' ground truth, bypassing decide() entirely. */
litmus::OutcomeSet
directOperationalOutcomes(const litmus::LitmusTest &test, ModelKind model)
{
    if (model == ModelKind::SC || model == ModelKind::TSO)
        return operational::exploreAll(
            operational::InOrderMachine(test, model)).outcomes;
    operational::GamOptions opts;
    opts.kind = model;
    return operational::exploreAll(operational::GamMachine(test, opts))
        .outcomes;
}

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

TEST(EngineRegistry, CapabilitiesMatchTheEngines)
{
    for (ModelKind model : allModels) {
        EXPECT_EQ(model::supportsEngine(model, Engine::Axiomatic),
                  model != ModelKind::AlphaStar);
        EXPECT_EQ(model::supportsEngine(model, Engine::Operational),
                  model != ModelKind::PerLocSC);
        // The cat engine decides exactly the models shipped as .cat
        // files: SC, TSO, GAM0 and GAM.
        EXPECT_EQ(model::supportsEngine(model, Engine::Cat),
                  model == ModelKind::SC || model == ModelKind::TSO
                      || model == ModelKind::GAM0
                      || model == ModelKind::GAM);
    }
    EXPECT_FALSE(model::operationalOutcomesExact(ModelKind::ARM));
    EXPECT_TRUE(model::operationalOutcomesExact(ModelKind::GAM));
}

TEST(EngineRegistry, NamesRoundTrip)
{
    for (Engine engine : model::allEngines)
        EXPECT_EQ(model::engineFromName(model::engineName(engine)),
                  engine);
    EXPECT_FALSE(model::engineFromName("axiomatical").has_value());
}

TEST(EngineRegistry, AutoPrefersAxiomaticWhenDefined)
{
    const auto &t = litmus::testByName("mp");
    EXPECT_EQ(resolveEngine(queryFor(t, ModelKind::GAM,
                                     EngineSelect::Auto)),
              Engine::Axiomatic);
    EXPECT_EQ(resolveEngine(queryFor(t, ModelKind::PerLocSC,
                                     EngineSelect::Auto)),
              Engine::Axiomatic);
    EXPECT_EQ(resolveEngine(queryFor(t, ModelKind::AlphaStar,
                                     EngineSelect::Auto)),
              Engine::Operational);
    EXPECT_EQ(resolveEngine(queryFor(t, ModelKind::GAM,
                                     EngineSelect::Operational)),
              Engine::Operational);
}

TEST(DecisionParity, MatchesLegacyEntryPointsOnAllBuiltins)
{
    // Every builtin under every model: decide() dispatching to an
    // engine against the engines invoked directly -- the checker's
    // verdict and the explorer's outcome set.  The axiomatic verdict
    // keeps the prescreen on, so a screened answer is held to the
    // checker too; the outcome-set comparison turns it off, because a
    // value-cover answer carries no outcomes.
    DecisionCache cache;
    for (const auto &test : litmus::allTests()) {
        for (ModelKind model : allModels) {
            const std::string what =
                test.name + " " + model::modelName(model);
            if (model::supportsEngine(model, Engine::Axiomatic)) {
                const Query q =
                    queryFor(test, model, EngineSelect::Axiomatic);
                const Decision d = decide(q, &cache);
                EXPECT_EQ(d.allowed,
                          axiomatic::Checker(test, model).isAllowed())
                    << what;
                EXPECT_EQ(d.engine, Engine::Axiomatic);
                EXPECT_TRUE(d.complete);
            }
            if (model::supportsEngine(model, Engine::Operational)) {
                const litmus::OutcomeSet direct =
                    directOperationalOutcomes(test, model);
                Query q = queryFor(test, model, EngineSelect::Operational);
                q.options.prescreen = false;
                const Decision d = decide(q, &cache);
                EXPECT_EQ(d.outcomes, direct) << what;
                EXPECT_EQ(d.engine, Engine::Operational);
            }
        }
    }
}

TEST(DecisionParity, MatchesEnginesInvokedDirectly)
{
    // Bypass every wrapper: the Decision's outcome set and verdict
    // must equal the raw Checker / explorer results.
    for (const char *name : {"dekker", "mp", "sb_fenced", "corr"}) {
        const auto &test = litmus::testByName(name);
        for (ModelKind model :
             {ModelKind::SC, ModelKind::TSO, ModelKind::GAM}) {
            const Decision ax = decide(
                queryFor(test, model, EngineSelect::Axiomatic), nullptr);
            axiomatic::Checker checker(test, model);
            EXPECT_EQ(ax.outcomes, checker.enumerate())
                << name << " " << model::modelName(model);
            axiomatic::Checker oracle(test, model);
            EXPECT_EQ(ax.allowed, oracle.isAllowed())
                << name << " " << model::modelName(model);

            const Decision op = decide(
                queryFor(test, model, EngineSelect::Operational),
                nullptr);
            EXPECT_EQ(op.outcomes,
                      directOperationalOutcomes(test, model))
                << name << " " << model::modelName(model);
        }
    }
}

TEST(DecisionParity, MatrixEngineSelectionFiltersRows)
{
    const std::vector<litmus::LitmusTest> tests{
        litmus::testByName("mp")};
    const std::vector<ModelKind> models{ModelKind::SC, ModelKind::GAM,
                                        ModelKind::AlphaStar};
    DecisionCache cache;

    MatrixOptions both;
    both.cache = &cache;
    // SC and GAM have three engines each (axiomatic, operational,
    // cat), AlphaStar only the machine: 7 rows.
    EXPECT_EQ(runLitmusMatrix(tests, models, both).size(), 7u);

    MatrixOptions on_auto;
    on_auto.engine = EngineSelect::Auto;
    on_auto.cache = &cache;
    const auto rows = runLitmusMatrix(tests, models, on_auto);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].engine, Engine::Axiomatic);
    EXPECT_EQ(rows[2].engine, Engine::Operational); // Alpha*

    MatrixOptions operational_only;
    operational_only.engine = EngineSelect::Operational;
    operational_only.cache = &cache;
    // PerLocSC would be skipped; these three all have machines.
    EXPECT_EQ(runLitmusMatrix(tests, models, operational_only).size(),
              3u);
}

TEST(Fingerprint, IgnoresMetadataButNotSemantics)
{
    litmus::LitmusTest a = litmus::testByName("mp");
    litmus::LitmusTest b = a;
    b.name = "renamed";
    b.description = "different prose";
    b.paperRef = "nowhere";
    b.expected.clear();
    EXPECT_EQ(litmus::fingerprint(a), litmus::fingerprint(b));

    litmus::LitmusTest c = a;
    c.threads[0].code.pop_back();
    EXPECT_NE(litmus::fingerprint(a), litmus::fingerprint(c));

    litmus::LitmusTest d = a;
    ASSERT_FALSE(d.regCond.empty());
    d.regCond[0].value ^= 1;
    EXPECT_NE(litmus::fingerprint(a), litmus::fingerprint(d));
}

TEST(DecisionCache, WarmDecisionIdenticalToCold)
{
    DecisionCache cache;
    const auto &test = litmus::testByName("dekker");
    for (EngineSelect engine :
         {EngineSelect::Axiomatic, EngineSelect::Operational}) {
        const Query q = queryFor(test, ModelKind::GAM, engine);
        const Decision cold = decide(q, &cache);
        const Decision warm = decide(q, &cache);
        EXPECT_FALSE(cold.cacheHit);
        EXPECT_TRUE(warm.cacheHit);
        EXPECT_EQ(warm.allowed, cold.allowed);
        EXPECT_EQ(warm.outcomes, cold.outcomes);
        EXPECT_EQ(warm.engine, cold.engine);
        EXPECT_EQ(warm.statesVisited, cold.statesVisited);
        EXPECT_EQ(warm.complete, cold.complete);
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(cache.size(), 2u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(DecisionCache, StatsReportShardOccupancySkew)
{
    // Keys route to shard (key >> 59): three keys sharing their top 5
    // bits pile onto one shard, one key with different top bits lands
    // elsewhere.  The skew (max/mean) flags exactly this clustering.
    DecisionCache cache;
    Decision d;
    d.complete = true;
    cache.insert(0x1ull, d);
    cache.insert(0x2ull, d);
    cache.insert(0x3ull, d);

    auto stats = cache.stats();
    EXPECT_EQ(stats.residents, 3u);
    EXPECT_GT(stats.shardCount, 0u);
    EXPECT_EQ(stats.shardMax, 3u);
    EXPECT_DOUBLE_EQ(stats.shardMean,
                     3.0 / double(stats.shardCount));

    cache.insert(0x1ull << 59, d); // a different shard
    stats = cache.stats();
    EXPECT_EQ(stats.residents, 4u);
    EXPECT_EQ(stats.shardMax, 3u);
    EXPECT_DOUBLE_EQ(stats.shardMean,
                     4.0 / double(stats.shardCount));

    // clear() zeroes occupancy (and, as with every stat, evictions).
    cache.clear();
    stats = cache.stats();
    EXPECT_EQ(stats.residents, 0u);
    EXPECT_EQ(stats.shardMax, 0u);
    EXPECT_DOUBLE_EQ(stats.shardMean, 0.0);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(DecisionCache, TruncatedDecisionsAreNotCached)
{
    DecisionCache cache;
    Query q = queryFor(litmus::testByName("dekker"), ModelKind::GAM,
                       EngineSelect::Operational);
    q.options.stateBudget = 1;
    for (int i = 0; i < 2; ++i) {
        const Decision d = decide(q, &cache);
        EXPECT_FALSE(d.complete);
        EXPECT_FALSE(d.cacheHit);
    }
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().uncached, 2u);
}

TEST(DecisionCache, KeysSeparateModelEngineAndOptions)
{
    const auto &test = litmus::testByName("mp");
    const Query base = queryFor(test, ModelKind::GAM,
                                EngineSelect::Axiomatic);
    const uint64_t k = queryKey(base, Engine::Axiomatic);
    // Campaign stores persist these keys, and a re-run resumes from
    // them: a key that changes orphans every record written before.
    EXPECT_EQ(k, 0xd49f81efc6073585ull);
    EXPECT_NE(k, queryKey(base, Engine::Operational));

    Query other_model = base;
    other_model.model = ModelKind::TSO;
    EXPECT_NE(k, queryKey(other_model, Engine::Axiomatic));

    // No RunOptions field affects a key.  Only complete (exhaustive)
    // decisions are cached and those are budget-independent, so
    // frontends running with different budgets share entries; no
    // engine reads threads; the prescreen caches nothing it
    // short-circuits; compiled and interpreted cat decide alike.
    const std::pair<const char *, void (*)(RunOptions &)> fields[] = {
        {"threads", [](RunOptions &o) { o.threads = 8; }},
        {"stateBudget", [](RunOptions &o) { o.stateBudget = 7; }},
        {"prescreen", [](RunOptions &o) { o.prescreen = false; }},
        {"catCompile", [](RunOptions &o) { o.catCompile = false; }},
    };
    for (const auto &[field, change] : fields) {
        Query other = base;
        change(other.options);
        for (Engine engine : model::allEngines) {
            EXPECT_EQ(queryKey(base, engine), queryKey(other, engine))
                << field << " under " << model::engineName(engine);
        }
    }
}

TEST(DecisionCache, CapacityIsBounded)
{
    DecisionCache cache(/*max_entries=*/32);
    Decision filler;
    filler.complete = true;
    for (uint64_t key = 0; key < 10'000; ++key)
        cache.insert(mix64(key), filler);
    // 32 shards x (32/32 + 1) entries: the cap is approximate but firm.
    EXPECT_LE(cache.size(), 64u);
}

TEST(DecisionCache, ConcurrentDecidesOnOneQueryAreRaceFree)
{
    DecisionCache cache;
    const auto &test = litmus::testByName("dekker");
    const Query q = queryFor(test, ModelKind::GAM,
                             EngineSelect::Operational);
    const Decision reference = decide(q, nullptr);

    constexpr size_t N = 64;
    std::vector<Decision> decisions(N);
    ThreadPool pool(8);
    pool.parallelFor(N, [&](size_t i) {
        decisions[i] = decide(q, &cache);
    });
    for (const auto &d : decisions) {
        EXPECT_EQ(d.allowed, reference.allowed);
        EXPECT_EQ(d.outcomes, reference.outcomes);
        EXPECT_EQ(d.complete, reference.complete);
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, N);
    EXPECT_GE(stats.misses, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

/** A complete decision whose outcome set is {0:r1=v} for each v. */
Decision
decisionWithValues(std::initializer_list<isa::Value> values)
{
    Decision d;
    d.complete = true;
    for (isa::Value v : values) {
        litmus::Outcome o;
        o.regs.push_back({0, isa::Reg(1), v});
        d.outcomes.insert(o);
    }
    return d;
}

TEST(DecisionCache, EqualOutcomeSetsAreStoredOnce)
{
    // One test under four models by three engines: the engines agree
    // per model (the paper's equivalence), and SC and TSO agree on mp,
    // so twelve residents share far fewer sets.
    DecisionCache cache;
    const auto &test = litmus::testByName("mp");
    std::vector<std::pair<Query, Decision>> decided;
    std::set<litmus::OutcomeSet> distinct;
    for (ModelKind model : {ModelKind::SC, ModelKind::TSO,
                            ModelKind::GAM0, ModelKind::GAM}) {
        for (EngineSelect engine :
             {EngineSelect::Axiomatic, EngineSelect::Cat,
              EngineSelect::Operational}) {
            Query q = queryFor(test, model, engine);
            // Screened decisions are not cached under their own key.
            q.options.prescreen = false;
            const Decision d = decide(q, &cache);
            distinct.insert(d.outcomes);
            decided.emplace_back(q, d);
        }
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.residents, 12u);
    EXPECT_EQ(stats.outcomeSets, distinct.size());
    EXPECT_LT(stats.outcomeSets, stats.residents);
    for (const auto &[q, d] : decided) {
        const auto hit = cache.lookup(queryKey(q, d.engine));
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->outcomes, d.outcomes);
        EXPECT_EQ(hit->allowed, d.allowed);
        EXPECT_EQ(hit->engine, d.engine);
        EXPECT_EQ(hit->statesVisited, d.statesVisited);
    }

    cache.clear();
    EXPECT_EQ(cache.stats().outcomeSets, 0u);
    EXPECT_FALSE(cache.lookup(queryKey(decided[0].first,
                                       decided[0].second.engine)));
}

TEST(DecisionCache, EvictionAndOverwriteReleaseOutcomeSets)
{
    // 32 shards of capacity 2: keys below 2^59 all route to shard 0,
    // so 100 distinct sets leave two residents and two sets.
    DecisionCache cache(/*max_entries=*/32);
    for (isa::Value v = 0; v < 100; ++v)
        cache.insert(uint64_t(v), decisionWithValues({v}));
    auto stats = cache.stats();
    EXPECT_EQ(stats.residents, 2u);
    EXPECT_EQ(stats.evictions, 98u);
    EXPECT_EQ(stats.outcomeSets, 2u);

    // Re-inserting a key releases the set it displaced.
    cache.clear();
    cache.insert(7, decisionWithValues({1, 2}));
    cache.insert(8, decisionWithValues({1, 2}));
    EXPECT_EQ(cache.stats().outcomeSets, 1u);
    cache.insert(7, decisionWithValues({3}));
    EXPECT_EQ(cache.stats().outcomeSets, 2u);
    cache.insert(8, decisionWithValues({3}));
    stats = cache.stats();
    EXPECT_EQ(stats.residents, 2u);
    EXPECT_EQ(stats.outcomeSets, 1u);
    EXPECT_EQ(cache.lookup(7)->outcomes, decisionWithValues({3}).outcomes);
}

TEST(DecisionCache, ConcurrentInsertsShareSetsConsistently)
{
    // Eight threads insert and look up 256 keys whose decisions carry
    // one of three outcome sets; then again through a cache small
    // enough to evict all the while.
    const Decision contents[] = {decisionWithValues({0}),
                                 decisionWithValues({0, 1}),
                                 decisionWithValues({1, 2, 3})};
    constexpr size_t Keys = 256;
    constexpr size_t Tasks = 4096;
    auto keyOf = [](size_t k) { return mix64(k); };
    for (size_t capacity : {size_t(1) << 20, size_t(64)}) {
        DecisionCache cache(capacity);
        std::atomic<size_t> wrong{0};
        ThreadPool pool(8);
        pool.parallelFor(Tasks, [&](size_t i) {
            const size_t k = i % Keys;
            cache.insert(keyOf(k), contents[k % 3]);
            const size_t probe = (i * 7) % Keys;
            if (const auto hit = cache.lookup(keyOf(probe)))
                wrong += hit->outcomes != contents[probe % 3].outcomes;
        });
        EXPECT_EQ(wrong.load(), 0u);

        // Quiescent: the table holds exactly the residents' sets.
        std::set<litmus::OutcomeSet> resident;
        for (size_t k = 0; k < Keys; ++k) {
            if (const auto hit = cache.lookup(keyOf(k))) {
                EXPECT_EQ(hit->outcomes, contents[k % 3].outcomes);
                resident.insert(hit->outcomes);
            }
        }
        const auto stats = cache.stats();
        EXPECT_EQ(stats.outcomeSets, resident.size());
        if (capacity > Keys) {
            EXPECT_EQ(stats.residents, Keys);
            EXPECT_EQ(stats.outcomeSets, 3u);
        }
        cache.clear();
        EXPECT_EQ(cache.stats().outcomeSets, 0u);
    }
}

TEST(DecisionParity, TruncatedVerdictsRenderAsInconclusive)
{
    const std::vector<litmus::LitmusTest> tests{
        litmus::testByName("dekker")};
    DecisionCache cache;
    MatrixOptions options;
    options.engine = EngineSelect::Operational;
    options.run.stateBudget = 10;
    options.cache = &cache;
    const auto verdicts =
        runLitmusMatrix(tests, {ModelKind::GAM}, options);
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_FALSE(verdicts[0].complete);
    // An inconclusive row never claims a (mis)match with the paper...
    EXPECT_TRUE(verdicts[0].matchesPaper());
    // ... and the rendering flags it instead of printing 'forbidden'.
    const std::string rendered = formatLitmusMatrix(verdicts);
    EXPECT_NE(rendered.find("truncated"), std::string::npos);
    EXPECT_EQ(rendered.find("MISMATCH"), std::string::npos);
}

} // namespace
} // namespace gam::harness
