#include "harness/decision.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "analysis/prescreen.hh"
#include "base/hashing.hh"
#include "base/logging.hh"
#include "cat/engine.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "operational/explorer.hh"
#include "operational/gam_machine.hh"
#include "operational/inorder_machine.hh"

namespace gam::harness
{

using model::Engine;
using model::ModelKind;

std::string
prescreenKindName(PrescreenKind kind)
{
    switch (kind) {
      case PrescreenKind::ValueCover: return "value-cover";
      case PrescreenKind::ScDelegate: return "sc-delegate";
      case PrescreenKind::None: break;
    }
    return "";
}

// ------------------------------------------------------------- cache

/** A cached decision: its outcome set lives in a SetShard. */
struct DecisionCache::Resident
{
    /** The decision, with an empty outcome set. */
    Decision decision;
    std::shared_ptr<const litmus::OutcomeSet> outcomes;
    /** litmus::outcomeSetHash(*outcomes), the set's table key. */
    uint64_t hash = 0;
};

struct DecisionCache::Shard
{
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Resident> map;
};

/**
 * One shard of the distinct outcome sets the residents share, each
 * held once.  Equal sets hash alike, so sharding by set hash keeps
 * the sharing whole while concurrent inserts rarely meet on one lock.
 */
struct DecisionCache::SetShard
{
    struct Entry
    {
        std::shared_ptr<const litmus::OutcomeSet> set;
        /** Residents pointing at set; the entry goes at zero. */
        uint64_t residents = 0;
    };

    mutable std::mutex mu;
    /** Keyed by litmus::outcomeSetHash; equal hashes compare sets. */
    std::unordered_multimap<uint64_t, Entry> byHash;
};

DecisionCache::DecisionCache(size_t max_entries)
    : shards(new Shard[ShardCount]),
      sets(new SetShard[ShardCount]),
      shardCapacity(max_entries / ShardCount + 1)
{
}

DecisionCache::~DecisionCache() = default;

DecisionCache::Shard &
DecisionCache::shardFor(uint64_t key)
{
    // The low bits index the shard map's buckets; route on high bits.
    static_assert(DecisionCache::ShardCount == 1u << 5,
                  "the 59-bit shift below routes onto 32 shards");
    return shards[key >> 59];
}

DecisionCache::SetShard &
DecisionCache::setShardFor(uint64_t hash)
{
    return sets[hash >> 59];
}

std::shared_ptr<const litmus::OutcomeSet>
DecisionCache::acquireSet(uint64_t hash, const litmus::OutcomeSet &outcomes)
{
    SetShard &shard = setShardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, end] = shard.byHash.equal_range(hash);
    for (; it != end; ++it) {
        if (*it->second.set == outcomes) {
            ++it->second.residents;
            return it->second.set;
        }
    }
    return shard.byHash
        .emplace(hash,
                 SetShard::Entry{
                     std::make_shared<const litmus::OutcomeSet>(outcomes),
                     1})
        ->second.set;
}

void
DecisionCache::releaseSet(const Resident &resident)
{
    if (!resident.outcomes)
        return;
    SetShard &shard = setShardFor(resident.hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, end] = shard.byHash.equal_range(resident.hash);
    for (; it != end; ++it) {
        if (it->second.set == resident.outcomes) {
            it->second.residents -= 1;
            if (it->second.residents == 0)
                shard.byHash.erase(it);
            return;
        }
    }
}

std::optional<Decision>
DecisionCache::lookup(uint64_t key)
{
    Decision hit;
    std::shared_ptr<const litmus::OutcomeSet> outcomes;
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mu);
        auto it = shard.map.find(key);
        if (it == shard.map.end()) {
            misses.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;
        }
        hits.fetch_add(1, std::memory_order_relaxed);
        hit = it->second.decision;
        outcomes = it->second.outcomes;
    }
    // `outcomes` keeps the set alive if an insert evicts the resident
    // meanwhile.
    hit.outcomes = *outcomes;
    return hit;
}

void
DecisionCache::insert(uint64_t key, const Decision &decision)
{
    if (!decision.complete) {
        // A truncated outcome set depends on scheduling and budget;
        // serving it later would silently weaken other queries.
        uncached.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Resident fresh;
    fresh.hash = litmus::outcomeSetHash(decision.outcomes);
    fresh.outcomes = acquireSet(fresh.hash, decision.outcomes);
    fresh.decision = decision;
    fresh.decision.outcomes.clear();

    // Residents this insert displaces, released once the shard lock
    // is dropped (the set shards have their own locks).
    Resident evicted;
    Resident replaced;
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mu);
        if (shard.map.size() >= shardCapacity
            && !shard.map.count(key)) {
            // Full: evict an arbitrary resident (hash order is as good
            // a victim policy as any here) so campaigns stay bounded.
            auto victim = shard.map.begin();
            evicted = std::move(victim->second);
            shard.map.erase(victim);
            evictions.fetch_add(1, std::memory_order_relaxed);
        }
        Resident &slot = shard.map[key];
        replaced = std::move(slot);
        slot = std::move(fresh);
    }
    releaseSet(evicted);
    releaseSet(replaced);
}

size_t
DecisionCache::size() const
{
    size_t n = 0;
    for (unsigned i = 0; i < ShardCount; ++i) {
        std::lock_guard<std::mutex> lock(shards[i].mu);
        n += shards[i].map.size();
    }
    return n;
}

size_t
DecisionCache::capacity() const
{
    return shardCapacity * ShardCount;
}

DecisionCacheStats
DecisionCache::stats() const
{
    DecisionCacheStats s;
    s.hits = hits.load();
    s.misses = misses.load();
    s.uncached = uncached.load();
    s.evictions = evictions.load();
    s.shardCount = ShardCount;
    for (unsigned i = 0; i < ShardCount; ++i) {
        std::lock_guard<std::mutex> lock(shards[i].mu);
        const uint64_t n = shards[i].map.size();
        s.residents += n;
        s.shardMax = std::max(s.shardMax, n);
    }
    s.shardMean = double(s.residents) / double(ShardCount);
    for (unsigned i = 0; i < ShardCount; ++i) {
        std::lock_guard<std::mutex> lock(sets[i].mu);
        s.outcomeSets += sets[i].byHash.size();
    }
    return s;
}

void
DecisionCache::clear()
{
    for (unsigned i = 0; i < ShardCount; ++i) {
        std::lock_guard<std::mutex> lock(shards[i].mu);
        shards[i].map.clear();
    }
    for (unsigned i = 0; i < ShardCount; ++i) {
        std::lock_guard<std::mutex> lock(sets[i].mu);
        sets[i].byHash.clear();
    }
    hits.store(0);
    misses.store(0);
    uncached.store(0);
    evictions.store(0);
}

DecisionCache &
globalDecisionCache()
{
    static DecisionCache cache;
    return cache;
}

// ------------------------------------------------------------ decide

namespace
{

/**
 * The word every key hashes after (test, model, engine): the digest of
 * the query options keys once folded in.  With the budget left out
 * and no checker knobs on a query, it always came to this value
 * (StateHasher over a budget of 0, an InstOrder flag of 1 and an empty
 * seed list).  Stores persist the keys, so the word stays: every store
 * written before keeps serving its records.
 */
constexpr uint64_t OptionsDigest = 0x9aa39db6925997feull;

/** queryKey() with the test fingerprint precomputed: a test's queries
 *  hash it once (TestContext), not once per key derivation. */
uint64_t
queryKeyHashed(uint64_t testFingerprint, const Query &query,
               Engine engine)
{
    // No RunOptions field reaches the key.  Only complete decisions
    // are ever cached, and a complete outcome set is independent of
    // the budget that produced it: frontends running with different
    // budgets (fuzzer vs. runner vs. synthesis) share entries, and a
    // query whose own budget would have truncated simply gets the
    // better, exhaustive answer.  Compiled and interpreted cat
    // pipelines decide identically, so a differential run warms the
    // cache for the default pipeline.  The prescreen never caches
    // what it short-circuits (see RunOptions::prescreen).
    StateHasher h;
    h.add(testFingerprint);
    h.add(uint64_t(query.model));
    h.add(uint64_t(engine));
    h.add(OptionsDigest);
    if (engine == Engine::Cat) {
        // The model is data: fold its content hash into the key so a
        // cached decision can never outlive an edit to the file.
        const cat::CatModel &m = query.catModel
            ? *query.catModel : cat::builtinCatModel(query.model);
        h.add(m.sourceHash);
    }
    return h.digest();
}

} // anonymous namespace

uint64_t
queryKey(const Query &query, Engine engine)
{
    return queryKeyHashed(litmus::fingerprint(*query.test), query,
                          engine);
}

Engine
resolveEngine(const Query &query)
{
    switch (query.engine) {
      case EngineSelect::Axiomatic:
        return Engine::Axiomatic;
      case EngineSelect::Operational:
        return Engine::Operational;
      case EngineSelect::Cat:
        return Engine::Cat;
      case EngineSelect::Auto:
        break;
    }
    return model::supportsEngine(query.model, Engine::Axiomatic)
        ? Engine::Axiomatic
        : Engine::Operational;
}

EngineSelect
engineSelectOf(Engine engine)
{
    switch (engine) {
      case Engine::Axiomatic: return EngineSelect::Axiomatic;
      case Engine::Operational: return EngineSelect::Operational;
      case Engine::Cat: return EngineSelect::Cat;
    }
    panic("engineSelectOf: bad engine");
}

namespace
{

bool
anyConditionMatch(const litmus::LitmusTest &test,
                  const litmus::OutcomeSet &outcomes)
{
    for (const auto &o : outcomes)
        if (test.conditionMatches(o))
            return true;
    return false;
}

/**
 * What every query of one test shares, each computed at most once and
 * only when first asked for: the test's fingerprint, for cache and
 * store keys, and its prescreen value fixpoint, which is
 * model-independent (only screen()'s ppo walk is per model).
 * decideBatch() keeps one per test, decide() one for its query.
 */
class TestContext
{
  public:
    explicit TestContext(const litmus::LitmusTest *t) : test(t)
    {
        GAM_ASSERT(t != nullptr, "decide: null test");
    }

    uint64_t
    fingerprint()
    {
        if (!fp)
            fp = litmus::fingerprint(*test);
        return *fp;
    }

    const analysis::PrescreenAnalysis &
    prescreen()
    {
        if (!screen)
            screen.emplace(*test);
        return *screen;
    }

    const litmus::LitmusTest *const test;

  private:
    std::optional<uint64_t> fp;
    std::optional<analysis::PrescreenAnalysis> screen;
};

/** The checker options every enumeration of @p test runs with: OOTA
 *  candidates are seeded exactly as Checker::isAllowed() does, so
 *  OOTA-style queries are decided by the axioms rather than by
 *  omission.  Under every shipped model such candidates are rejected
 *  either way, so this does not change the outcome set. */
axiomatic::Options
seededOptions(const litmus::LitmusTest &test)
{
    return axiomatic::withConditionSeeds(test, {});
}

void
runAxiomatic(const Query &query, Decision &d)
{
    axiomatic::Checker checker(*query.test, query.model,
                               seededOptions(*query.test));
    d.outcomes = checker.enumerate();
    d.allowed = anyConditionMatch(*query.test, d.outcomes);
    d.statesVisited = checker.stats().coCandidates;
    d.enumStats = checker.stats();
    d.complete = true;
}

void
runCat(const Query &query, Decision &d)
{
    const cat::CatModel &m = query.catModel
        ? *query.catModel : cat::builtinCatModel(query.model);
    // Seed OOTA candidates exactly as runAxiomatic() does: the two
    // engines share the candidate builder, so this keeps them
    // verdict-comparable query-for-query.
    cat::CatEngine engine(*query.test, m, seededOptions(*query.test),
                          query.options.catCompile
                              ? cat::CatEngine::Mode::Compiled
                              : cat::CatEngine::Mode::Interpreted);
    d.outcomes = engine.enumerate();
    d.allowed = anyConditionMatch(*query.test, d.outcomes);
    d.statesVisited = engine.stats().coCandidates;
    d.enumStats = engine.stats();
    d.complete = true;
}

void
runOperational(const Query &query, Decision &d)
{
    operational::ExploreResult r;
    const uint64_t budget = query.options.stateBudget;
    switch (query.model) {
      case ModelKind::SC:
      case ModelKind::TSO:
        r = operational::exploreAll(
            operational::InOrderMachine(*query.test, query.model), budget);
        break;
      default: {
        operational::GamOptions opts;
        opts.kind = query.model;
        r = operational::exploreAll(
            operational::GamMachine(*query.test, opts), budget);
        break;
      }
    }
    d.outcomes = std::move(r.outcomes);
    d.allowed = anyConditionMatch(*query.test, d.outcomes);
    d.statesVisited = r.statesVisited;
    d.complete = r.complete;
}

/**
 * May the static pre-screen speak for this query?  Only with the
 * builtin model files: the analyses are proved sound against
 * executions those reject (in particular, out-of-thin-air
 * candidates), not against arbitrary user models.  The one builtin
 * model that admits out-of-thin-air candidates, PerLocSC, is refused
 * by analysis::PrescreenAnalysis::screen() itself.
 */
bool
prescreenApplies(const Query &query)
{
    return query.options.prescreen && query.catModel == nullptr;
}

/**
 * The decide() pipeline's registry metrics, resolved once (metric
 * registration takes a lock; these references are process-lifetime).
 * Every request ends at exactly one terminal counter, so
 *
 *   decide.requests == decide.cache.hit + decide.store.hit
 *                    + decide.prescreen.value_cover
 *                    + decide.prescreen.sc_delegate
 *                    + decide.engine.{axiomatic,operational,cat}
 *
 * (an ScDelegate's inner SC decision is its own request with its own
 * terminal).  decide.store.write counts backend->store() offers.
 */
struct DecideMetrics
{
    obs::Counter &requests = obs::metrics().counter("decide.requests");
    obs::Counter &cacheHit = obs::metrics().counter("decide.cache.hit");
    obs::Counter &cacheMiss =
        obs::metrics().counter("decide.cache.miss");
    obs::Counter &storeHit = obs::metrics().counter("decide.store.hit");
    obs::Counter &storeWrite =
        obs::metrics().counter("decide.store.write");
    obs::Counter &valueCover =
        obs::metrics().counter("decide.prescreen.value_cover");
    obs::Counter &scDelegate =
        obs::metrics().counter("decide.prescreen.sc_delegate");
    obs::Counter &engineAxiomatic =
        obs::metrics().counter("decide.engine.axiomatic");
    obs::Counter &engineOperational =
        obs::metrics().counter("decide.engine.operational");
    obs::Counter &engineCat =
        obs::metrics().counter("decide.engine.cat");
    obs::Counter &incomplete =
        obs::metrics().counter("decide.incomplete");
    obs::Histogram &wallUs =
        obs::metrics().histogram("decide.wall_us");

    obs::Counter &
    engineCounter(Engine engine)
    {
        switch (engine) {
          case Engine::Axiomatic: return engineAxiomatic;
          case Engine::Operational: return engineOperational;
          case Engine::Cat: return engineCat;
        }
        return engineAxiomatic;
    }
};

DecideMetrics &
decideMetrics()
{
    static DecideMetrics m;
    return m;
}

/**
 * decideBatch()'s own registry metrics.  batch.queries counts queries
 * routed through a batch; fused_groups / fused_queries count the
 * walks (one per test with a pended query) and the axiomatic engine
 * runs they absorbed (fused_queries / fused_groups is the fan-in the
 * multi-lane walk buys -- the dominant batch amortization);
 * ppo_lookups / ppo_computed count the built-in lanes' ppo requests
 * and the ones the batch's shape cache could not serve, added once
 * per call.
 */
struct BatchMetrics
{
    obs::Counter &calls = obs::metrics().counter("decide.batch.calls");
    obs::Counter &queries =
        obs::metrics().counter("decide.batch.queries");
    obs::Counter &fusedGroups =
        obs::metrics().counter("decide.batch.fused_groups");
    obs::Counter &fusedQueries =
        obs::metrics().counter("decide.batch.fused_queries");
    obs::Counter &ppoLookups =
        obs::metrics().counter("decide.batch.ppo_lookups");
    obs::Counter &ppoComputed =
        obs::metrics().counter("decide.batch.ppo_computed");
};

BatchMetrics &
batchMetrics()
{
    static BatchMetrics m;
    return m;
}

/**
 * An axiomatic engine run decideQuery() deferred onto its test's walk:
 * everything the finish phase needs to complete the request exactly
 * as the inline pipeline would have.
 */
struct PendingEngine
{
    /** Input-order slot of the query (indexes the result vector). */
    size_t slot = 0;
    /** Filter lane of the walk (the SC lane for delegators). */
    size_t lane = 0;
    /** The query's own cache/store key. */
    uint64_t key = 0;
    /** Key of the delegated-to SC query (delegateSc only). */
    uint64_t innerKey = 0;
    /** Pended at the ScDelegate prescreen, not at the engine switch. */
    bool delegateSc = false;
    /** Request arrival, so wall time covers the queueing too. */
    std::chrono::steady_clock::time_point start;
};

/**
 * Stamp @p d with its span id and take the request's one
 * decide.wall_us sample: its wall time since @p start.
 */
void
stampDecision(Decision &d, std::chrono::steady_clock::time_point start,
              uint64_t spanId)
{
    const double wallSeconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
    d.traceSpanId = spanId;
    decideMetrics().wallUs.sample(uint64_t(wallSeconds * 1e6));
}

/**
 * Serve @p key from the cache, then from the store: the front of every
 * request, and (cache only) the end of a deferred delegation's inner
 * SC request.  Counts the cache hit or miss and the store hit, traces
 * each lookup and flags the served decision; the caller stamps it.
 */
std::optional<Decision>
serveStored(uint64_t key, DecisionCache *cache, DecisionBackend *backend)
{
    DecideMetrics &m = decideMetrics();
    std::optional<Decision> hit;
    if (cache) {
        {
            obs::TraceSpan lookupSpan("decide.cache");
            hit = cache->lookup(key);
        }
        if (hit) {
            m.cacheHit.inc();
            hit->cacheHit = true;
            return hit;
        }
        m.cacheMiss.inc();
    }
    if (backend) {
        // Second level: the persistent store.  A hit is verdict-only
        // (Decision::storeHit), so it must never be inserted into the
        // in-memory cache -- outcome-set consumers sharing the cache
        // would silently receive an empty enumeration.
        {
            obs::TraceSpan loadSpan("decide.store");
            hit = backend->load(key);
        }
        if (hit) {
            m.storeHit.inc();
            hit->storeHit = true;
        }
    }
    return hit;
}

/**
 * The shared tail of every engine-produced decision -- inline or
 * fused: terminal + completeness counters, wall time, span stamp,
 * cache insert, store offer.  Exactly one terminal counter and one
 * wall sample per request, whichever phase finishes it.
 */
void
finishEngineDecision(const Query &query, Decision &d, uint64_t key,
                     DecisionCache *cache, DecisionBackend *backend,
                     std::chrono::steady_clock::time_point start,
                     uint64_t spanId)
{
    DecideMetrics &m = decideMetrics();
    m.engineCounter(d.engine).inc();
    if (!d.complete)
        m.incomplete.inc();
    stampDecision(d, start, spanId);
    if (cache)
        cache->insert(key, d);
    if (backend && d.complete) {
        backend->store(key, query, d);
        m.storeWrite.inc();
    }
}

/** The SC query an ScDelegate decision of @p query is answered by:
 *  the same test and options under SC, pinned to @p engine, with the
 *  prescreen off (the delegator has just screened the test). */
Query
scSubQuery(const Query &query, Engine engine)
{
    Query sub = query;
    sub.model = ModelKind::SC;
    sub.options.prescreen = false;
    sub.engine = engineSelectOf(engine);
    return sub;
}

/**
 * Finish an SC delegation from the inner SC decision @p d, inline or
 * deferred: relabel it as @p query's ScDelegate answer by @p engine,
 * count and stamp it, and persist it under the delegator's own @p key
 * (the delegated set is exact), so a later run is one store hit
 * instead of a re-screen plus delegation.  The inner request never
 * touches the store, so @p d always carries its real outcome set.
 */
void
finishScDelegation(const Query &query, Decision &d, Engine engine,
                   uint64_t key, DecisionBackend *backend,
                   std::chrono::steady_clock::time_point start,
                   uint64_t spanId)
{
    DecideMetrics &m = decideMetrics();
    d.engine = engine;
    d.cacheHit = false;
    d.prescreened = PrescreenKind::ScDelegate;
    m.scDelegate.inc();
    stampDecision(d, start, spanId);
    if (backend) {
        backend->store(key, query, d);
        m.storeWrite.inc();
    }
}

/**
 * The decide() pipeline front: cache, store, prescreen, engine, for a
 * query on @p test's test.  With @p pending non-null (the batched
 * pipeline), an axiomatic engine run is not executed but *pended*:
 * the request and non-terminal counters have fired, @p pending
 * describes the deferred run, and the caller owes the finish phase
 * (the test's walk + finishEngineDecision()).  Returns the decision
 * otherwise.
 */
std::optional<Decision>
decideQuery(const Query &query, TestContext &test, DecisionCache *cache,
            DecisionBackend *backend, PendingEngine *pending)
{
    const Engine engine = resolveEngine(query);
    // A custom cat model brings its own axioms: the (model, engine)
    // capability gate only applies when the builtin file is implied.
    GAM_ASSERT((engine == Engine::Cat && query.catModel != nullptr)
                   || model::supportsEngine(query.model, engine),
               "decide: the %s engine cannot decide %s",
               model::engineName(engine).c_str(),
               model::modelName(query.model).c_str());

    DecideMetrics &m = decideMetrics();
    m.requests.inc();
    obs::TraceSpan span("decide");
    // Every return path stamps the decision with this start and span;
    // exactly one terminal counter fires per request.
    const auto start = std::chrono::steady_clock::now();

    const uint64_t key = (cache || backend)
        ? queryKeyHashed(test.fingerprint(), query, engine)
        : 0;
    if (std::optional<Decision> hit = serveStored(key, cache, backend)) {
        stampDecision(*hit, start, span.id());
        return hit;
    }

    if (prescreenApplies(query)) {
        obs::TraceSpan prescreenSpan("decide.prescreen");
        const analysis::PrescreenResult pre =
            test.prescreen().screen(query.model);
        if (pre.verdict == analysis::PrescreenVerdict::Forbidden) {
            // Sound for the verdict only: no outcomes are enumerated,
            // so the decision is never cached (a prescreen-off query
            // sharing the key must still get an exact outcome set).
            Decision d;
            d.engine = engine;
            d.allowed = false;
            d.complete = true;
            d.prescreened = PrescreenKind::ValueCover;
            m.valueCover.inc();
            stampDecision(d, start, span.id());
            // Persistable even though no outcomes exist: the analysis
            // is deterministic, so a fresh re-decide under the same
            // options reproduces this exact (verdict, empty-set) shape
            // -- the store round-trip check still holds.
            if (backend) {
                backend->store(key, query, d);
                m.storeWrite.inc();
            }
            return d;
        }
        if (pre.verdict == analysis::PrescreenVerdict::ScEquivalent
            && query.model != ModelKind::SC
            && model::supportsEngine(ModelKind::SC, engine)) {
            // The model's outcome set provably equals SC's: decide the
            // SC query (usually already cached) with the same engine.
            // The result is exact, but is not inserted into the cache
            // under this query's key, so that prescreen-off consumers
            // always exercise the real engine.  The inner SC request
            // bypasses the store: a store hit is verdict-only, and the
            // delegator must carry -- and persist -- the exact set.
            const Query sub = scSubQuery(query, engine);
            if (pending && engine == Engine::Axiomatic) {
                // Defer the delegation onto the walk's SC lane.  The
                // inner SC decision is its own request (terminal at
                // finish time: the cache once the test's SC query or
                // an earlier delegator published it, or the lane
                // itself), so count its arrival now.
                m.requests.inc();
                pending->key = key;
                pending->innerKey =
                    cache ? queryKeyHashed(test.fingerprint(), sub, engine)
                          : 0;
                pending->delegateSc = true;
                pending->start = start;
                return std::nullopt;
            }
            Decision d = *decideQuery(sub, test, cache, nullptr, nullptr);
            finishScDelegation(query, d, engine, key, backend, start,
                               span.id());
            return d;
        }
    }

    if (pending && engine == Engine::Axiomatic) {
        // Defer the enumeration onto the test's walk: the finish phase
        // reads this model's filter lane and runs
        // finishEngineDecision() with this request's key and start.
        pending->key = key;
        pending->delegateSc = false;
        pending->start = start;
        return std::nullopt;
    }

    Decision d;
    d.engine = engine;
    {
        obs::TraceSpan engineSpan("decide.engine");
        switch (engine) {
          case Engine::Axiomatic:
            runAxiomatic(query, d);
            break;
          case Engine::Operational:
            runOperational(query, d);
            break;
          case Engine::Cat:
            runCat(query, d);
            break;
        }
    }
    finishEngineDecision(query, d, key, cache, backend, start,
                         span.id());
    return d;
}

/**
 * decideBatch() for the queries of one test, at @p slots of @p queries:
 * the front pass, the test's one walk with a filter lane per pended
 * model, and the finish of every pended request from its lane,
 * exactly as its inline run would have ended.
 */
void
decideTest(const std::vector<Query> &queries, std::vector<size_t> &slots,
           DecisionCache *cache, DecisionBackend *backend,
           axiomatic::PpoCache &ppoShapes, std::vector<Decision> &out)
{
    // (model, engine) order -- stable, so equal queries keep their
    // input order.  SC sorts first, so the test's SC query precedes
    // the delegators that want its decision.
    auto rank = [&](size_t slot) {
        return std::pair(queries[slot].model, resolveEngine(queries[slot]));
    };
    std::stable_sort(slots.begin(), slots.end(),
                     [&](size_t a, size_t b) { return rank(a) < rank(b); });

    TestContext test(queries[slots.front()].test);
    std::vector<ModelKind> lanes;
    std::vector<PendingEngine> pended;
    for (size_t slot : slots) {
        const Query &q = queries[slot];
        PendingEngine pend;
        pend.slot = slot;
        if (std::optional<Decision> d =
                decideQuery(q, test, cache, backend, &pend)) {
            out[slot] = *std::move(d);
            continue;
        }
        const ModelKind lane = pend.delegateSc ? ModelKind::SC : q.model;
        pend.lane = size_t(std::find(lanes.begin(), lanes.end(), lane)
                           - lanes.begin());
        if (pend.lane == lanes.size())
            lanes.push_back(lane);
        pended.push_back(pend);
    }
    if (pended.empty())
        return;

    BatchMetrics &bm = batchMetrics();
    bm.fusedGroups.inc();
    bm.fusedQueries.inc(pended.size());
    const litmus::LitmusTest &t = *test.test;
    axiomatic::CandidateEnumerator enumerator(t, seededOptions(t));
    std::vector<axiomatic::CheckerStats> laneStats;
    std::vector<litmus::OutcomeSet> sets;
    {
        obs::TraceSpan engineSpan("decide.engine");
        sets = axiomatic::enumerateModels(enumerator, lanes, &laneStats,
                                          &ppoShapes);
    }
    auto laneDecision = [&](size_t lane) {
        Decision d;
        d.engine = Engine::Axiomatic;
        d.outcomes = sets[lane];
        d.allowed = anyConditionMatch(t, d.outcomes);
        d.statesVisited = laneStats[lane].coCandidates;
        d.enumStats = laneStats[lane];
        d.complete = true;
        return d;
    };
    for (const PendingEngine &p : pended) {
        const Query &q = queries[p.slot];
        if (!p.delegateSc) {
            Decision d = laneDecision(p.lane);
            obs::TraceSpan span("decide");
            finishEngineDecision(q, d, p.key, cache, backend, p.start,
                                 span.id());
            out[p.slot] = std::move(d);
            continue;
        }
        // A deferred ScDelegate: terminate the inner SC request first
        // -- at the cache (the test's SC query or an earlier delegator
        // published it) or from the SC lane, never at the store --
        // then finish the delegation exactly as the inline prescreen
        // path does.
        std::optional<Decision> inner =
            serveStored(p.innerKey, cache, nullptr);
        if (inner) {
            stampDecision(*inner, p.start, 0);
        } else {
            inner = laneDecision(p.lane);
            obs::TraceSpan innerSpan("decide");
            finishEngineDecision(scSubQuery(q, Engine::Axiomatic), *inner,
                                 p.innerKey, cache, nullptr, p.start,
                                 innerSpan.id());
        }
        obs::TraceSpan span("decide");
        finishScDelegation(q, *inner, Engine::Axiomatic, p.key, backend,
                           p.start, span.id());
        out[p.slot] = *std::move(inner);
    }
}

} // anonymous namespace

Decision
decide(const Query &query, DecisionCache *cache, DecisionBackend *backend)
{
    TestContext test(query.test);
    return *decideQuery(query, test, cache, backend, nullptr);
}

std::vector<Decision>
decideBatch(const std::vector<Query> &queries, DecisionCache *cache,
            DecisionBackend *backend)
{
    BatchMetrics &bm = batchMetrics();
    bm.calls.inc();
    bm.queries.inc(queries.size());

    // Group the queries by test, in order of each test's first
    // appearance, and decide each test in full -- front pass, walk,
    // finish -- before the next, so a pended request waits for its
    // own test's walk only.  Each decision goes to its input slot.
    std::unordered_map<const litmus::LitmusTest *, size_t> testIndex;
    std::vector<std::vector<size_t>> testSlots;
    for (size_t i = 0; i < queries.size(); ++i) {
        auto [it, fresh] =
            testIndex.try_emplace(queries[i].test, testSlots.size());
        if (fresh)
            testSlots.emplace_back();
        testSlots[it->second].push_back(i);
    }
    axiomatic::PpoCache ppoShapes;
    std::vector<Decision> out(queries.size());
    for (std::vector<size_t> &slots : testSlots)
        decideTest(queries, slots, cache, backend, ppoShapes, out);
    bm.ppoLookups.inc(ppoShapes.lookups);
    bm.ppoComputed.inc(ppoShapes.shapes.size());
    return out;
}

} // namespace gam::harness
