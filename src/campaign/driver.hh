/**
 * @file
 * The campaign driver: decide the exhaustive test universe under a
 * set of models and engines over a thread pool, with an optional
 * persistent decision store that doubles as the campaign's resume
 * point.
 *
 * A campaign is three deterministic steps:
 *
 *  1. *Prepare*: enumerate every canonical cycle (campaign/enumerate)
 *     and dedupe by the fingerprint of its lowered test, which the
 *     enumeration computes when it checks each class representative
 *     lowers (CanonicalCycle::testFingerprint; distinct canonical
 *     cycles can lower to the same program, e.g. when a dependency
 *     edge degenerates).  No test is kept: a unit is its cycle.  The
 *     surviving units keep their enumeration order, so a --limit
 *     prefix and the verify sample are reproducible across runs and
 *     platforms.  The step runs in one `campaign.prepare` span.
 *  2. *Decide*: workers pull chunks of units from a shared cursor,
 *     lower each unit to its litmus test, and decide every
 *     (model, engine) pair of a chunk as one
 *     harness::decideBatch() call, backed by a private DecisionCache
 *     and, when given, a DecisionStore.  Each worker tallies into its
 *     own counts.
 *  3. *Merge*: once the pool drains, the store is flushed and the
 *     workers' tallies are summed.
 *
 * Resuming is re-running: a campaign over the same store serves every
 * decision a killed run persisted from the store instead of the
 * engines, and decides only the rest.
 *
 * Verification sampling closes the loop on the store: every Nth
 * decision, counted in unit x pair order, is re-decided from scratch
 * (no cache, no store) and its verdict plus outcome-set witness (size,
 * litmus::outcomeSetHash) are compared against the stored record,
 * proving persisted answers still match the engines exactly.
 */

#ifndef GAM_CAMPAIGN_DRIVER_HH
#define GAM_CAMPAIGN_DRIVER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/enumerate.hh"
#include "campaign/store.hh"
#include "harness/decision.hh"
#include "model/engine.hh"
#include "obs/registry.hh"

namespace gam::campaign
{

/** Configuration of one campaign run. */
struct CampaignOptions
{
    /** The test universe (cycle lengths, edge vocabulary). */
    EnumerateOptions enumerate;
    /**
     * Models to decide.  The default is the four models every engine
     * here can decide -- SC, TSO, GAM0 and GAM all have axioms *and*
     * builtin cat files -- so the default matrix has no skipped pairs.
     */
    std::vector<model::ModelKind> models = {
        model::ModelKind::SC, model::ModelKind::TSO,
        model::ModelKind::GAM0, model::ModelKind::GAM};
    /** Engines to decide each model under (unsupported pairs are
     *  skipped and counted, not errors). */
    std::vector<model::Engine> engines = {model::Engine::Axiomatic};
    /** Worker threads; 0 = hardware concurrency. */
    unsigned threads = 0;
    /** Cap on deduped units (0 = the whole universe); applied in
     *  enumeration order, so a capped run is a prefix of the full one. */
    uint64_t limit = 0;
    /** Re-decide every Nth decision (in unit x pair order) from
     *  scratch and compare verdict and outcome witness against the
     *  store (0 = off). */
    uint64_t verifySample = 0;
    /** Private in-memory cache capacity.  Deliberately small: within
     *  one campaign only delegated SC sub-queries repeat, and a small
     *  cache keeps 100k-test runs from holding every outcome set in
     *  memory (the store keeps compact records instead). */
    size_t cacheEntries = 1 << 16;
    /** Engine knobs for every decision. */
    harness::RunOptions run;
};

/** One (model, engine) pair's outcome tallies. */
struct PairTally
{
    model::ModelKind model = model::ModelKind::GAM;
    model::Engine engine = model::Engine::Axiomatic;
    uint64_t decided = 0;
    uint64_t allowed = 0;
    uint64_t storeHits = 0;
};

/** Live progress snapshot passed to the progress callback. */
struct CampaignProgress
{
    uint64_t decisionsDone = 0;
    uint64_t decisionsTotal = 0;
    uint64_t storeHits = 0;
    double seconds = 0.0;
};

/** The completed campaign's summary. */
struct CampaignResult
{
    EnumerateStats enumerate;
    /** Lowered tests discarded as fingerprint duplicates. */
    uint64_t duplicateTests = 0;
    /** Deduped canonical tests in the work queue. */
    uint64_t units = 0;
    /** (model, engine) pairs decided / skipped as unsupported. */
    uint64_t pairs = 0;
    uint64_t skippedPairs = 0;
    uint64_t decisions = 0;
    uint64_t allowed = 0;
    uint64_t storeHits = 0;
    uint64_t cacheHits = 0;
    uint64_t prescreened = 0;
    /**
     * Decisions this run offered to the store (fresh engine or
     * prescreen answers; cache/store hits are never re-offered).  With
     * a store attached, every decision is served from exactly one
     * source, so the driver's tallies reconcile exactly:
     *
     *   decisions == storeWrites + cacheHits + storeHits
     *
     * (the obs_campaign reconciliation test enforces this).
     */
    uint64_t storeWrites = 0;
    /** Verification samples taken / that disagreed with the store. */
    uint64_t verified = 0;
    uint64_t verifyMismatches = 0;
    double seconds = 0.0;
    std::vector<PairTally> tallies;
    harness::DecisionCacheStats cacheStats;
    /**
     * Registry delta of exactly this run (decide.* pipeline counters,
     * campaign.* aggregates, enum.* work counters): what `campaign run
     * --metrics` writes as campaign_metrics.json.
     */
    obs::MetricSnapshot metrics;
};

/**
 * Run a campaign.  @p store may be nullptr (no persistence); when
 * given, it is flushed before this returns.  The progress callback,
 * when given, is invoked from the coordinating thread roughly once a
 * second and once at completion.
 */
CampaignResult
runCampaign(const CampaignOptions &options, DecisionStore *store,
            const std::function<void(const CampaignProgress &)> &progress
            = {});

/** Multi-line human-readable summary of a finished campaign. */
std::string formatCampaign(const CampaignResult &result);

/**
 * Aggregate a store's resident records per (model, engine): the
 * `campaign status`/`campaign query` view.  @p model / @p allowed
 * filter when set (query); both unset summarises everything (status).
 */
std::string
formatStoreSummary(const DecisionStore &store,
                   std::optional<model::ModelKind> model = std::nullopt,
                   std::optional<bool> allowed = std::nullopt);

/** One test two models decide differently (store-resident verdicts). */
struct Disagreement
{
    /** litmus::fingerprint of the disagreeing test. */
    uint64_t testFingerprint = 0;
    bool aAllowed = false;
    bool bAllowed = false;
};

/**
 * Every test with persisted records under both @p a and @p b whose
 * verdicts differ, sorted by fingerprint (deterministic).  When a
 * model has several records for one test (multiple engines), the
 * record with the smallest key speaks for it -- engines are
 * differential-tested to agree, so any spread would itself be a bug
 * the verify sampler flags.  The `campaign query --disagree` axis:
 * where in the bounded universe do two models actually part ways?
 */
std::vector<Disagreement> disagreeingTests(const DecisionStore &store,
                                           model::ModelKind a,
                                           model::ModelKind b);

/** Human-readable rendering of disagreeingTests(). */
std::string formatDisagreements(const DecisionStore &store,
                                model::ModelKind a, model::ModelKind b);

} // namespace gam::campaign

#endif // GAM_CAMPAIGN_DRIVER_HH
