/**
 * Tests for the batched decision pipeline (harness::decideBatch):
 * query-for-query equivalence with decide() across every builtin test,
 * model and enumeration engine, identical cache and backend
 * interactions, deciding test by test, and the batch amortization
 * counters (decide.batch.fused_groups / fused_queries).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "harness/decision.hh"
#include "litmus/outcome.hh"
#include "litmus/suite.hh"
#include "model/engine.hh"
#include "obs/registry.hh"

namespace gam::harness
{
namespace
{

using model::Engine;
using model::ModelKind;

constexpr ModelKind enumerableModels[] = {
    ModelKind::SC,   ModelKind::TSO, ModelKind::GAM0,
    ModelKind::GAM,  ModelKind::ARM, ModelKind::PerLocSC,
};

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

/** Every (builtin test, model, engine) query the batch pipeline can
 *  decide, in an order that interleaves models and engines -- the
 *  grouping inside decideBatch must not leak into the results.
 *  @p tests must outlive the queries (they point into it). */
std::vector<Query>
allEnumerationQueries(const std::vector<litmus::LitmusTest> &tests)
{
    std::vector<Query> queries;
    for (const auto &test : tests) {
        for (ModelKind model : enumerableModels) {
            queries.push_back(
                queryFor(test, model, EngineSelect::Axiomatic));
            if (model::supportsEngine(model, Engine::Cat))
                queries.push_back(
                    queryFor(test, model, EngineSelect::Cat));
        }
    }
    return queries;
}

void
expectSameDecision(const Decision &batch, const Decision &one,
                   const Query &query, size_t index)
{
    const std::string what = std::string(query.test->name) + " under "
        + model::modelName(query.model) + " #" + std::to_string(index);
    EXPECT_EQ(batch.allowed, one.allowed) << what;
    EXPECT_EQ(batch.engine, one.engine) << what;
    EXPECT_EQ(batch.complete, one.complete) << what;
    EXPECT_EQ(batch.prescreened, one.prescreened) << what;
    EXPECT_EQ(batch.outcomes.size(), one.outcomes.size()) << what;
    EXPECT_EQ(litmus::outcomeSetHash(batch.outcomes),
              litmus::outcomeSetHash(one.outcomes))
        << what;
}

TEST(DecideBatch, MatchesDecideQueryForQueryOnAllBuiltins)
{
    const std::vector<litmus::LitmusTest> tests = litmus::allTests();
    const std::vector<Query> queries = allEnumerationQueries(tests);
    ASSERT_FALSE(queries.empty());

    DecisionCache batchCache(1 << 16);
    const std::vector<Decision> batched =
        decideBatch(queries, &batchCache);
    ASSERT_EQ(batched.size(), queries.size());

    DecisionCache oneCache(1 << 16);
    for (size_t i = 0; i < queries.size(); ++i) {
        const Decision one = decide(queries[i], &oneCache);
        expectSameDecision(batched[i], one, queries[i], i);
    }
}

TEST(DecideBatch, SecondBatchServesFromTheSharedCache)
{
    const auto &mp = litmus::testByName("mp");
    const auto &sb = litmus::testByName("dekker");
    std::vector<Query> queries = {
        queryFor(mp, ModelKind::GAM, EngineSelect::Axiomatic),
        queryFor(sb, ModelKind::TSO, EngineSelect::Axiomatic),
        queryFor(mp, ModelKind::SC, EngineSelect::Cat),
    };

    DecisionCache cache(1 << 12);
    const auto cold = decideBatch(queries, &cache);
    const auto warm = decideBatch(queries, &cache);
    ASSERT_EQ(cold.size(), warm.size());
    for (size_t i = 0; i < cold.size(); ++i) {
        EXPECT_FALSE(cold[i].cacheHit) << i;
        EXPECT_TRUE(warm[i].cacheHit) << i;
        expectSameDecision(warm[i], cold[i], queries[i], i);
    }
}

/** A trivial in-memory DecisionBackend: what the campaign store does,
 *  without the file. */
class MapBackend final : public DecisionBackend
{
  public:
    std::optional<Decision> load(uint64_t key) override
    {
        auto it = records.find(key);
        if (it == records.end())
            return std::nullopt;
        Decision d;
        d.allowed = it->second;
        d.complete = true;
        d.storeHit = true;
        return d;
    }

    void store(uint64_t key, const Query &,
               const Decision &decision) override
    {
        records.emplace(key, decision.allowed);
    }

    std::map<uint64_t, bool> records;
};

TEST(DecideBatch, BackendInteractionsMatchDecide)
{
    std::vector<Query> queries;
    for (const char *name : {"mp", "dekker", "lb", "iriw"})
        for (ModelKind model : {ModelKind::TSO, ModelKind::GAM})
            queries.push_back(queryFor(litmus::testByName(name), model,
                                       EngineSelect::Axiomatic));

    // Cold batch offers every fresh decision to the backend...
    MapBackend viaBatch;
    {
        DecisionCache cache(1 << 12);
        const auto cold = decideBatch(queries, &cache, &viaBatch);
        // Every query persisted, plus one inner SC record per
        // SC-delegated query -- exactly what a decide() loop offers.
        EXPECT_GE(viaBatch.records.size(), queries.size());
        for (const Decision &d : cold)
            EXPECT_FALSE(d.storeHit);
    }
    // ...exactly as a decide() loop would (same keys, same verdicts)...
    MapBackend viaLoop;
    {
        DecisionCache cache(1 << 12);
        for (const Query &q : queries)
            decide(q, &cache, &viaLoop);
    }
    EXPECT_EQ(viaBatch.records, viaLoop.records);

    // ...and a cold-cache re-batch serves verdict-only store hits.
    DecisionCache fresh(1 << 12);
    const auto warm = decideBatch(queries, &fresh, &viaBatch);
    for (size_t i = 0; i < warm.size(); ++i) {
        EXPECT_TRUE(warm[i].storeHit) << i;
        EXPECT_EQ(warm[i].allowed,
                  viaBatch.records.at(queryKey(
                      queries[i], resolveEngine(queries[i]))))
            << i;
        EXPECT_TRUE(warm[i].outcomes.empty()) << i;
    }
}

TEST(DecideBatch, FusesAxiomaticRunsWithinABatch)
{
    // Two cat models over two tests: each cat query compiles its own
    // plan, as an inline decide() does.  Two axiomatic models over the
    // same tests: each test's queries fuse into ONE enumeration pass
    // with one filter lane per model (fused_queries / fused_groups is
    // the amortization).
    const auto &mp = litmus::testByName("mp");
    const auto &sb = litmus::testByName("dekker");
    std::vector<Query> queries = {
        queryFor(mp, ModelKind::GAM, EngineSelect::Cat),
        queryFor(sb, ModelKind::GAM, EngineSelect::Cat),
        queryFor(mp, ModelKind::GAM0, EngineSelect::Cat),
        queryFor(sb, ModelKind::GAM0, EngineSelect::Cat),
        queryFor(mp, ModelKind::GAM, EngineSelect::Axiomatic),
        queryFor(sb, ModelKind::GAM, EngineSelect::Axiomatic),
        queryFor(mp, ModelKind::GAM0, EngineSelect::Axiomatic),
        queryFor(sb, ModelKind::GAM0, EngineSelect::Axiomatic),
    };

    const obs::MetricSnapshot before = obs::metrics().snapshot();
    DecisionCache cache(1 << 12);
    decideBatch(queries, &cache);
    const obs::MetricSnapshot delta =
        obs::metrics().snapshot().delta(before);

    EXPECT_EQ(delta.counter("decide.batch.calls"), 1u);
    EXPECT_EQ(delta.counter("decide.batch.queries"), queries.size());
    // One compile per cat query: a plan takes microseconds to build.
    EXPECT_EQ(delta.counter("cat.compiles"), 4u);
    // mp and sb each run ONE fused enumeration deciding both
    // axiomatic models (plus any SC-delegation lane).
    EXPECT_EQ(delta.counter("decide.batch.fused_groups"), 2u);
    EXPECT_EQ(delta.counter("decide.batch.fused_queries"), 4u);
}

TEST(DecideBatch, EqualTestsInDistinctObjectsShareOneWalk)
{
    // Two equal copies of mp, as distinct objects, their queries
    // interleaved.  The batch decides the first copy in full -- one
    // walk for all four models -- before the second, whose queries
    // then hit the cache under the same keys.
    const litmus::LitmusTest first = litmus::testByName("mp");
    const litmus::LitmusTest second = first;
    std::vector<Query> queries;
    for (ModelKind model : {ModelKind::SC, ModelKind::TSO,
                            ModelKind::GAM0, ModelKind::GAM}) {
        for (const litmus::LitmusTest *test : {&first, &second}) {
            queries.push_back(
                queryFor(*test, model, EngineSelect::Axiomatic));
            queries.back().options.prescreen = false;
        }
    }

    const obs::MetricSnapshot before = obs::metrics().snapshot();
    DecisionCache cache(1 << 8);
    const std::vector<Decision> batched = decideBatch(queries, &cache);
    const obs::MetricSnapshot delta =
        obs::metrics().snapshot().delta(before);
    EXPECT_EQ(delta.counter("decide.engine.axiomatic"), 4u);
    EXPECT_EQ(delta.counter("decide.cache.hit"), 4u);
    EXPECT_EQ(delta.counter("decide.batch.fused_groups"), 1u);
    for (size_t i = 0; i < queries.size(); i += 2) {
        EXPECT_FALSE(batched[i].cacheHit) << i;
        EXPECT_TRUE(batched[i + 1].cacheHit) << i + 1;
        expectSameDecision(batched[i + 1], batched[i], queries[i + 1],
                           i + 1);
    }
}

TEST(DecideBatch, InterleavedTestsMatchADecideLoop)
{
    // Two tests' queries alternate, with the SC queries last: the
    // batch decides one test in full, then the other, yet every
    // decision lands in its input slot, equal to a decide() loop's,
    // and the two caches count the same hits and misses.
    const auto &mp = litmus::testByName("mp");
    const auto &sb = litmus::testByName("dekker");
    std::vector<Query> queries;
    for (ModelKind model : {ModelKind::GAM, ModelKind::TSO,
                            ModelKind::GAM0, ModelKind::SC}) {
        for (const litmus::LitmusTest *test : {&sb, &mp}) {
            queries.push_back(
                queryFor(*test, model, EngineSelect::Axiomatic));
            queries.push_back(queryFor(*test, model, EngineSelect::Cat));
        }
    }

    DecisionCache batchCache(1 << 8);
    const std::vector<Decision> batched =
        decideBatch(queries, &batchCache);
    ASSERT_EQ(batched.size(), queries.size());
    DecisionCache loopCache(1 << 8);
    for (size_t i = 0; i < queries.size(); ++i) {
        expectSameDecision(batched[i], decide(queries[i], &loopCache),
                           queries[i], i);
    }
    EXPECT_EQ(batchCache.stats().hits, loopCache.stats().hits);
    EXPECT_EQ(batchCache.stats().misses, loopCache.stats().misses);
}

TEST(DecideBatch, MatchesDecideOnCorrUnderArmWithoutThePrescreen)
{
    // With the prescreen off, corr (Fig. 14a) reaches the fused walk
    // under ARM, GAM and SC at once: one ppo shape cache serves all
    // three lanes, and only ARM's keys carry the reader's rf sources.
    // The verdicts and outcome sets must still be decide()'s.
    const auto &corr = litmus::testByName("corr");
    std::vector<Query> queries;
    for (ModelKind model : {ModelKind::ARM, ModelKind::GAM, ModelKind::SC}) {
        queries.push_back(
            queryFor(corr, model, EngineSelect::Axiomatic));
        queries.back().options.prescreen = false;
    }

    const obs::MetricSnapshot before = obs::metrics().snapshot();
    const std::vector<Decision> batched = decideBatch(queries, nullptr);
    const obs::MetricSnapshot delta =
        obs::metrics().snapshot().delta(before);
    ASSERT_EQ(batched.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(batched[i].prescreened, PrescreenKind::None) << i;
        expectSameDecision(batched[i], decide(queries[i], nullptr),
                           queries[i], i);
    }
    EXPECT_FALSE(batched[0].allowed); // different stores: ordered

    // One fused group; each lane asks once per thread for each of
    // the four value-consistent rf candidates.  ARM computes the
    // writer once and the reader once per rf assignment; GAM and SC
    // once per thread.
    EXPECT_EQ(delta.counter("decide.batch.fused_groups"), 1u);
    EXPECT_EQ(delta.counter("decide.batch.ppo_lookups"), 3u * 4 * 2);
    EXPECT_EQ(delta.counter("decide.batch.ppo_computed"), 5u + 2 + 2);
}

TEST(DecideBatch, EmptyBatchIsANoOp)
{
    DecisionCache cache(1 << 8);
    EXPECT_TRUE(decideBatch({}, &cache).empty());
}

} // namespace
} // namespace gam::harness
