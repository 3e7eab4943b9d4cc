/**
 * @file
 * The unified model-query API: one decide(Query) -> Decision entry
 * point over all verification engines (axiomatic, operational, cat),
 * plus a memoizing cache.
 *
 * The paper's central claim is that the GAM axiomatic definition and
 * its abstract machine are two views of *one* model.  This API makes
 * the library reflect that: callers describe *what* they want decided
 * (a litmus test under a model, with optional budgets and engine
 * preferences) and the registry dispatches to whichever engine can
 * answer, reporting back which one ran, the full outcome set, how much
 * work it did and whether the answer is exhaustive.  Engine capability
 * comes from model/engine.hh -- there is no per-frontend support
 * switch anywhere else.
 *
 * Repeated queries are endemic: the litmus matrix decides every suite
 * test under every model, fuzz shrinking re-decides a candidate per
 * deleted instruction, and fence synthesis probes hundreds of fence
 * placements over the same base test.  decide() therefore memoizes
 * complete decisions in a sharded, thread-safe DecisionCache keyed by
 * (test fingerprint, model, engine, model file); truncated
 * (incomplete) results are never cached, so a cached value never
 * depends on the budget it was decided under.
 */

#ifndef GAM_HARNESS_DECISION_HH
#define GAM_HARNESS_DECISION_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "axiomatic/checker.hh"
#include "litmus/outcome.hh"
#include "litmus/test.hh"
#include "model/engine.hh"
#include "model/kind.hh"

namespace gam::cat
{
struct CatModel;
} // namespace gam::cat

namespace gam::harness
{

/** Engine preference of a Query. */
enum class EngineSelect {
    /**
     * Let the registry pick: the axiomatic checker when the model has
     * axioms (it is the definition, and almost always cheaper), else
     * the operational explorer (Alpha*'s only definition).  Auto
     * never picks the cat engine: the hand-coded checker decides the
     * same candidates faster.
     */
    Auto,
    Axiomatic,
    Operational,
    /** The cat-DSL engine over Query::catModel or the builtin file. */
    Cat,
};

/**
 * The EngineSelect that pins @p engine (never Auto): the one
 * model::Engine -> EngineSelect mapping, shared by the matrix runner,
 * the campaign driver, SC delegation and the CLI's --engine flag.
 */
EngineSelect engineSelectOf(model::Engine engine);

/** How a Decision was (or was not) short-circuited before any engine. */
enum class PrescreenKind {
    /** An engine (or the cache) produced the decision. */
    None,
    /**
     * The static value-cover analysis (analysis/prescreen.hh) proved
     * the condition unsatisfiable: allowed = false with an *empty*
     * outcome set -- sound for the verdict, but not an outcome
     * enumeration.  Never cached, so outcome-set consumers that
     * disable prescreening still get exact sets.
     */
    ValueCover,
    /**
     * Every po-adjacent memory pair is statically preserved program
     * order under the queried model, so the query was delegated to SC:
     * the outcome set is exact and equals the model's own.
     */
    ScDelegate,
};

/** Display name ("", "value-cover", "sc-delegate"). */
std::string prescreenKindName(PrescreenKind kind);

/** Knobs shared by every engine invocation. */
struct RunOptions
{
    /**
     * Read by nothing: every engine decides a query on the calling
     * thread, and callers parallelise across queries (the matrix pool,
     * the fuzz pool, the campaign workers).  Never affected a
     * decision; kept only because pipebench still assigns it.
     */
    unsigned threads = 1;
    /**
     * Operational visited-state budget.  When exhausted the decision
     * comes back with complete = false and is not cached.  (Sized so
     * the 4-thread IRIW-family corpus explores to completion.)
     */
    uint64_t stateBudget = 32'000'000;
    /**
     * Let decide() try the static pre-screen (analysis/prescreen.hh)
     * before running an engine.  The pre-screen never changes the
     * *verdict* -- it is differentially validated against the engines
     * -- but a ValueCover decision carries no outcome enumeration, so
     * callers that compare outcome *sets* (the fuzzer's cross-check)
     * turn it off.  Not part of the cache key: ValueCover decisions
     * are never cached, and ScDelegate decisions are exact.
     */
    bool prescreen = true;
    /**
     * Run cat-engine queries through the compiled plan
     * (cat/compile.hh) rather than the interpreting evaluator.  Both
     * modes decide identical outcome sets by construction (the
     * compiler's differential tests enforce it), so this knob never
     * reaches the cache key: it selects a pipeline, not an answer.
     * Kept as an escape hatch for differential runs and debugging.
     */
    bool catCompile = true;
};

/** One model query: decide @p test under @p model. */
struct Query
{
    const litmus::LitmusTest *test = nullptr;
    model::ModelKind model = model::ModelKind::GAM;
    EngineSelect engine = EngineSelect::Auto;
    RunOptions options;
    /**
     * The model file for the cat engine: nullptr decides the builtin
     * cat model expressing `model` (.cat files under models/), a non-null pointer
     * overrides it with a custom parsed model (whose source hash then
     * keys the decision cache -- two different files never share an
     * entry, re-deciding after an edit really re-runs).  Ignored by
     * the other engines.  Not owned; must outlive the query.
     */
    const cat::CatModel *catModel = nullptr;
};

/** The answer to a Query. */
struct Decision
{
    /** Is the test's asked-about condition reachable? */
    bool allowed = false;
    /** Every outcome the deciding engine admits. */
    litmus::OutcomeSet outcomes;
    /** The engine that actually decided (Auto resolved). */
    model::Engine engine = model::Engine::Axiomatic;
    /**
     * Work done: states expanded (operational) or complete (rf, co)
     * candidates checked (enumeration engines; the pruned search
     * reaches far fewer than the legacy pipeline materialized).
     */
    uint64_t statesVisited = 0;
    /**
     * Enumeration counters (read-from maps tried, partial candidates
     * pruned, subtrees skipped, backtrack depth, ...) when the
     * deciding engine enumerates candidates
     * (model::engineUsesCandidateEnumeration); all-zero for
     * operational decisions.  Cached decisions replay the counters of
     * the run that produced them.
     */
    axiomatic::CheckerStats enumStats;
    /**
     * True when the outcome set is exhaustive.  False only for
     * operational runs cut off by RunOptions::stateBudget; such
     * decisions report the outcomes found so far and `allowed` is
     * only a lower bound (a "forbidden" answer is *not* conclusive).
     */
    bool complete = true;
    /** True when the decision was served from the DecisionCache. */
    bool cacheHit = false;
    /**
     * True when the decision was served from a persistent
     * DecisionBackend (e.g. the campaign store).  Backend records keep
     * a compact witness of the outcome set (its size and 64-bit
     * digest), not the set itself, so a store-served Decision is
     * *verdict-only*: `outcomes` is empty even when outcomes exist.
     * Consumers that need the enumeration must decide without a
     * backend; decide() never inserts such a reconstruction into the
     * in-memory cache for the same reason.
     */
    bool storeHit = false;
    /**
     * How the static pre-screen short-circuited this decision; None
     * when an engine (or the cache) answered.  See PrescreenKind for
     * what each value guarantees about `outcomes`.
     */
    PrescreenKind prescreened = PrescreenKind::None;
    /**
     * Id of the obs::TraceSpan covering this decision, 0 when tracing
     * was disabled.  Lets a frontend correlate a Decision with its
     * "decide" span (and that span's cache/store/prescreen/engine
     * children) in an exported Chrome trace.
     */
    uint64_t traceSpanId = 0;
};

/** Hit/miss counters and occupancy shape of one DecisionCache. */
struct DecisionCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    /** Decisions not stored (truncated by the state budget). */
    uint64_t uncached = 0;
    /** Residents displaced to make room once a shard filled up. */
    uint64_t evictions = 0;
    /** Decisions currently resident across all shards. */
    uint64_t residents = 0;
    /** Number of shards (denominator of shardMean). */
    unsigned shardCount = 0;
    /** Residents in the fullest shard. */
    uint64_t shardMax = 0;
    /**
     * Mean residents per shard.  shardMax / shardMean is the occupancy
     * skew: ~1 when keys spread evenly, >> 1 when fingerprints cluster
     * onto few shards (premature evictions while the cache is mostly
     * empty -- the key router routes on the top 5 bits, so a biased
     * fingerprint hash shows up here first).
     */
    double shardMean = 0.0;
    /**
     * Distinct outcome sets resident.  The cache holds each set once,
     * shared by every resident whose decision enumerated an equal set
     * (the engines agree on a model, and models often agree on a
     * test), so outcomeSets <= residents.
     */
    uint64_t outcomeSets = 0;
};

/**
 * A sharded, thread-safe map from query keys to complete Decisions.
 *
 * The key is a single 64-bit combination of (litmus::fingerprint(test),
 * model, engine, and for the cat engine the model file's source hash);
 * no RunOptions field reaches it.  As with the explorer's StateSet, a
 * collision would need ~2^32 distinct queries to become likely, far
 * beyond any realistic campaign.  Sharding keeps concurrent decide()
 * calls from serialising on one mutex: a key is routed to shard
 * (key >> 59), and each shard has its own lock and map.  Capacity is
 * bounded: when a shard is full an arbitrary resident entry is
 * evicted first, so unbounded fuzz campaigns cannot grow the cache
 * without limit.
 *
 * Each distinct outcome set is stored once, in a table the cache owns
 * keyed by litmus::outcomeSetHash (with a content check on equal
 * hashes) and sharded by that hash like the residents are by key:
 * residents share it, and it is freed once eviction, overwrite or
 * clear() drops its last resident.  lookup() copies the set out after
 * releasing the shard lock.
 *
 * Two threads deciding the same cold query race benignly: both
 * compute, both insert the same value, and both report a miss.
 */
class DecisionCache
{
  public:
    /** @param max_entries total capacity across all shards. */
    explicit DecisionCache(size_t max_entries = 1 << 20);
    ~DecisionCache();

    DecisionCache(const DecisionCache &) = delete;
    DecisionCache &operator=(const DecisionCache &) = delete;

    /** The cached decision for @p key, if any (counts a hit/miss). */
    std::optional<Decision> lookup(uint64_t key);

    /** Memoize @p decision; incomplete decisions are dropped. */
    void insert(uint64_t key, const Decision &decision);

    /** Decisions currently resident. */
    size_t size() const;

    /** Total entry capacity across all shards (occupancy = size()/this). */
    size_t capacity() const;

    DecisionCacheStats stats() const;

    /** Drop every entry and zero the stats. */
    void clear();

  private:
    struct Resident;
    struct Shard;
    struct SetShard;
    static constexpr unsigned ShardCount = 32;

    Shard &shardFor(uint64_t key);
    SetShard &setShardFor(uint64_t hash);
    /** The table's copy of @p outcomes (hashing to @p hash), counting
     *  one more resident on it. */
    std::shared_ptr<const litmus::OutcomeSet>
    acquireSet(uint64_t hash, const litmus::OutcomeSet &outcomes);
    /** Drop @p resident's count on its set, freeing it at zero. */
    void releaseSet(const Resident &resident);

    std::unique_ptr<Shard[]> shards;
    std::unique_ptr<SetShard[]> sets;
    size_t shardCapacity;
    /** Cache-wide counters; atomic so shards never share a stats lock. */
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> uncached{0};
    std::atomic<uint64_t> evictions{0};
};

/**
 * A persistent second-level decision source behind the in-memory
 * cache, implemented by campaign/store.hh.  decide() consults it on a
 * cache miss and offers every freshly engine-decided (or exactly
 * SC-delegated) complete decision back through store().
 *
 * Contract for load(): a hit must reconstruct the verdict faithfully
 * (allowed, engine, prescreened, complete = true) with storeHit set,
 * but carries no outcome enumeration -- see Decision::storeHit.
 * Implementations must be thread-safe; decide() is called from
 * campaign worker threads concurrently.
 */
class DecisionBackend
{
  public:
    virtual ~DecisionBackend() = default;

    /** The persisted decision under @p key, if any. */
    virtual std::optional<Decision> load(uint64_t key) = 0;

    /**
     * Offer a freshly decided @p decision for persistence.  decide()
     * only calls this with complete decisions that carry their exact
     * outcome enumeration (or a deterministically reproducible
     * ValueCover verdict); implementations may still ignore the offer.
     */
    virtual void store(uint64_t key, const Query &query,
                       const Decision &decision) = 0;
};

/**
 * The process-wide cache used when a caller does not bring its own.
 * Shared by the litmus runner, the fuzzer, fence synthesis and the
 * CLI, so e.g. a fuzz run warms the matrix for free.
 */
DecisionCache &globalDecisionCache();

/** The cache key decide() uses for @p query (exposed for tests). */
uint64_t queryKey(const Query &query, model::Engine engine);

/**
 * The engine Auto resolves to for @p query.  Explicit selections pass
 * through unchecked here; decide() asserts supportsEngine() for them.
 */
model::Engine resolveEngine(const Query &query);

/**
 * Decide @p query: resolve the engine through the registry, serve from
 * @p cache when possible, then from @p backend, otherwise run the
 * engine and memoize.
 *
 * @param cache   the memoization cache; nullptr disables caching
 *                entirely (every call recomputes).  Defaults to the
 *                process-wide cache.
 * @param backend optional persistent store consulted after a cache
 *                miss.  A backend hit returns a verdict-only Decision
 *                (storeHit set, no outcome enumeration) and is *not*
 *                inserted into the cache; a backend miss persists the
 *                fresh decision once the engine has produced it.  An
 *                SC delegation's inner SC request bypasses the
 *                backend, so the delegated decision always carries its
 *                exact outcome set and is persisted under its own key.
 *
 * Preconditions (GAM_ASSERT): query.test is non-null and the resolved
 * engine supports query.model -- gate explicit engine selections with
 * model::supportsEngine() first.
 */
Decision decide(const Query &query,
                DecisionCache *cache = &globalDecisionCache(),
                DecisionBackend *backend = nullptr);

/**
 * Decide a batch of queries through the same pipeline as decide(),
 * test by test.  The batch is ordered by each test's first appearance
 * (by object identity), then by (model, engine), and each test is
 * decided in full before the next one starts:
 *
 *  - a front pass serves what the cache, the store, the prescreen or
 *    a non-enumerating engine can answer, and pends every query that
 *    reaches the axiomatic engine;
 *  - one walk (axiomatic::enumerateModels) decides all of them: the
 *    rf-candidate stream, the value fixpoint and the coherence walk
 *    run once, with one filter lane per model, and each rf candidate
 *    is set up once for all lanes.  SC-delegated queries join the
 *    walk's SC lane;
 *  - a finish completes each pended request from its lane.
 *
 * A test's fingerprint (computed only when a cache or a backend needs
 * a key) and its prescreen value fixpoint serve all its queries.  One
 * preservedProgramOrder() memo (axiomatic::PpoCache) spans the batch,
 * because thread shapes recur across the tests of a campaign chunk.
 *
 * Results are returned in input order, and every query decides
 * exactly as the equivalent decide() call would -- same verdict, same
 * outcome set, same per-model enumeration counters, same cache/store/
 * prescreen interactions (decision_batch_test pins the equivalence).
 * A deferred SC delegation is served and finished by the same steps
 * decide() uses inline: its inner SC request ends at the cache or the
 * walk's SC lane, never at the store.  One caveat: identical queries
 * on one test *object* both pend onto its walk instead of the second
 * hitting the cache, so each lands on an engine terminal counter;
 * verdicts and persisted records are unaffected.  Equal tests held in
 * distinct objects are decided one after the other, so the second is
 * served from the cache.
 * The per-request decide.* metrics otherwise fire as usual, so every
 * request still ends at exactly one terminal counter and one
 * decide.wall_us sample (obs_test pins it).  decide.batch.* counts
 * the batch calls and queries, the walks and the queries they
 * absorbed, and the ppo memo's lookups and computations.
 */
std::vector<Decision>
decideBatch(const std::vector<Query> &queries,
            DecisionCache *cache = &globalDecisionCache(),
            DecisionBackend *backend = nullptr);

} // namespace gam::harness

#endif // GAM_HARNESS_DECISION_HH
