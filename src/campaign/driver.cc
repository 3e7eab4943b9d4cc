#include "campaign/driver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "litmus/test.hh"
#include "obs/trace.hh"

namespace gam::campaign
{

namespace
{

using harness::Decision;
using harness::Query;
using model::Engine;
using model::ModelKind;

/** One worker's tallies, summed once the pool drains. */
struct WorkerTally
{
    /** Per (model, engine) pair, in the campaign's pair order. */
    std::vector<PairTally> pairs;
    uint64_t cacheHits = 0;
    uint64_t prescreened = 0;
    uint64_t storeWrites = 0;
    uint64_t verified = 0;
    uint64_t verifyMismatches = 0;
};

std::string
percent(uint64_t part, uint64_t whole)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1)
       << (whole ? 100.0 * double(part) / double(whole) : 0.0) << "%";
    return os.str();
}

} // namespace

CampaignResult
runCampaign(const CampaignOptions &options, DecisionStore *store,
            const std::function<void(const CampaignProgress &)> &progress)
{
    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&start] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    // Snapshot the accumulating global registry up front so
    // result.metrics is a delta covering exactly this run.
    const obs::MetricSnapshot metricsBefore = obs::metrics().snapshot();
    GAM_TRACE_SCOPE("campaign.run");

    CampaignResult result;

    // ---- prepare: enumerate, dedupe -------------------------------
    // The enumeration fingerprints each emitted cycle's lowered test;
    // the prepare step keeps no tests, each worker lowers its units.
    std::vector<CanonicalCycle> units;
    {
        GAM_TRACE_SCOPE("campaign.prepare");
        std::unordered_set<uint64_t> seen;
        result.enumerate = enumerateCycles(
            options.enumerate, [&](const CanonicalCycle &cycle) {
                if (!seen.insert(cycle.testFingerprint).second) {
                    ++result.duplicateTests;
                    return true;
                }
                units.push_back(cycle);
                return options.limit == 0 || units.size() < options.limit;
            });
    }
    result.units = units.size();

    std::vector<std::pair<ModelKind, Engine>> pairs;
    for (ModelKind m : options.models)
        for (Engine e : options.engines) {
            if (model::supportsEngine(m, e))
                pairs.emplace_back(m, e);
            else
                ++result.skippedPairs;
        }
    result.pairs = pairs.size();
    const uint64_t decisions_total = units.size() * pairs.size();

    // ---- decide ---------------------------------------------------
    harness::DecisionCache cache(options.cacheEntries);

    std::atomic<uint64_t> done{0};
    std::atomic<uint64_t> store_hits{0};
    std::atomic<size_t> cursor{0};

    // Re-decide from scratch -- no cache, no store -- and hold the
    // answer against the persisted witness.  Returns true on match.
    auto verifyDecision = [&](const Query &q, Engine e,
                              const Decision &d) {
        Decision fresh = harness::decide(q, nullptr, nullptr);
        bool ok = fresh.allowed == d.allowed;
        if (store) {
            auto rec = store->record(harness::queryKey(q, e));
            ok = ok && rec && rec->allowed == fresh.allowed
                && rec->outcomeHash
                    == litmus::outcomeSetHash(fresh.outcomes)
                && rec->outcomeCount == fresh.outcomes.size();
        }
        return ok;
    };

    // Work-stealing over units: workers pull fixed-size chunks of the
    // unit list from a shared cursor and decide each chunk as one
    // harness::decideBatch() call (every model/engine pair of every
    // unit in the chunk), so per-query fixed costs amortize and a slow
    // unit delays one worker, not the campaign.  Chunk size trades
    // steal frequency against batch amortization: 64 units x a typical
    // 4-pair matrix is a 256-query batch, which keeps the batch's
    // ppo-shape memo hot across units (cycle tests share thread shapes
    // heavily), while still leaving enough steals per real campaign to
    // keep the tail balanced.
    constexpr size_t ChunkUnits = 64;
    ThreadPool pool(options.threads);
    const unsigned workers = std::max(
        1u, std::min(pool.threadCount(),
                     unsigned((units.size() + ChunkUnits - 1)
                              / ChunkUnits)));
    std::vector<WorkerTally> tallies(
        workers, WorkerTally{std::vector<PairTally>(pairs.size())});
    for (unsigned w = 0; w < workers; ++w) {
        pool.submit([&, w] {
            GAM_TRACE_SCOPE("campaign.worker");
            WorkerTally &tally = tallies[w];
            for (;;) {
                const size_t begin =
                    cursor.fetch_add(ChunkUnits, std::memory_order_relaxed);
                if (begin >= units.size())
                    return;
                const size_t end = std::min(begin + ChunkUnits, units.size());

                std::vector<litmus::LitmusTest> tests;
                tests.reserve(end - begin);
                for (size_t u = begin; u < end; ++u) {
                    const CanonicalCycle &cycle = units[u];
                    auto test = litmus::testFromCycle(
                        cycle.name, cycle.edges, cycle.numLocations);
                    GAM_ASSERT(test.has_value(),
                               "campaign: emitted cycle '%s' failed to "
                               "lower",
                               cycle.name.c_str());
                    tests.push_back(std::move(*test));
                }
                std::vector<Query> batch;
                batch.reserve((end - begin) * pairs.size());
                for (const litmus::LitmusTest &test : tests) {
                    for (const auto &[m, e] : pairs) {
                        Query q;
                        q.test = &test;
                        q.model = m;
                        q.engine = harness::engineSelectOf(e);
                        q.options = options.run;
                        batch.push_back(q);
                    }
                }
                const std::vector<Decision> decisions =
                    harness::decideBatch(batch, &cache, store);

                // batch[qi] is decision number begin * |pairs| + qi of
                // the campaign's unit x pair order.
                const uint64_t first = begin * pairs.size();
                uint64_t hits = 0;
                for (size_t qi = 0; qi < batch.size(); ++qi) {
                    const Decision &d = decisions[qi];
                    const size_t p = qi % pairs.size();
                    PairTally &pt = tally.pairs[p];
                    ++pt.decided;
                    pt.allowed += d.allowed ? 1 : 0;
                    pt.storeHits += d.storeHit ? 1 : 0;
                    hits += d.storeHit ? 1 : 0;
                    tally.cacheHits += d.cacheHit ? 1 : 0;
                    tally.prescreened +=
                        d.prescreened != harness::PrescreenKind::None
                        ? 1 : 0;
                    // Mirrors decide()'s backend-offer condition: a
                    // fresh complete answer (engine or prescreen) was
                    // persisted; served answers never are.
                    tally.storeWrites +=
                        store && !d.cacheHit && !d.storeHit && d.complete
                        ? 1 : 0;
                    if (options.verifySample != 0
                        && (first + qi + 1) % options.verifySample == 0) {
                        ++tally.verified;
                        if (!verifyDecision(batch[qi], pairs[p].second, d))
                            ++tally.verifyMismatches;
                    }
                }
                done.fetch_add(batch.size(), std::memory_order_relaxed);
                store_hits.fetch_add(hits, std::memory_order_relaxed);
            }
        });
    }

    // Coordinate: poll for progress while the pool drains.
    auto snapshot = [&] {
        CampaignProgress p;
        p.decisionsDone = done.load(std::memory_order_relaxed);
        p.decisionsTotal = decisions_total;
        p.storeHits = store_hits.load(std::memory_order_relaxed);
        p.seconds = elapsed();
        return p;
    };
    if (progress) {
        double last = 0.0;
        while (done.load(std::memory_order_relaxed) < decisions_total) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            if (elapsed() - last >= 1.0) {
                last = elapsed();
                progress(snapshot());
            }
        }
    }
    pool.wait();
    if (store)
        store->flush();

    // ---- merge ----------------------------------------------------
    result.tallies.resize(pairs.size());
    for (size_t p = 0; p < pairs.size(); ++p) {
        PairTally &pt = result.tallies[p];
        pt.model = pairs[p].first;
        pt.engine = pairs[p].second;
        for (const WorkerTally &tally : tallies) {
            pt.decided += tally.pairs[p].decided;
            pt.allowed += tally.pairs[p].allowed;
            pt.storeHits += tally.pairs[p].storeHits;
        }
        result.decisions += pt.decided;
        result.allowed += pt.allowed;
        result.storeHits += pt.storeHits;
    }
    for (const WorkerTally &tally : tallies) {
        result.cacheHits += tally.cacheHits;
        result.prescreened += tally.prescreened;
        result.storeWrites += tally.storeWrites;
        result.verified += tally.verified;
        result.verifyMismatches += tally.verifyMismatches;
    }
    result.cacheStats = cache.stats();
    result.seconds = elapsed();

    // Mirror the driver's own tallies into the registry and capture
    // this run's delta: campaign_metrics.json carries both the
    // decide() pipeline counters and these aggregates, and the
    // reconciliation test cross-checks the two views.
    {
        obs::MetricRegistry &reg = obs::metrics();
        reg.counter("campaign.units").inc(result.units);
        reg.counter("campaign.decisions").inc(result.decisions);
        reg.counter("campaign.allowed").inc(result.allowed);
        reg.counter("campaign.cache.hit").inc(result.cacheHits);
        reg.counter("campaign.store.hit").inc(result.storeHits);
        reg.counter("campaign.store.write").inc(result.storeWrites);
        reg.counter("campaign.prescreened").inc(result.prescreened);
        reg.counter("campaign.verified").inc(result.verified);
        reg.counter("campaign.verify_mismatches")
            .inc(result.verifyMismatches);
        // The symmetry quotient's work ledger: how many
        // rotation-canonical cycles the Full form folded away, and
        // what survived (campaign.units already counts post-dedupe).
        reg.counter("campaign.symmetry.duplicates")
            .inc(result.enumerate.symmetryDuplicates);
        reg.counter("campaign.symmetry.emitted")
            .inc(result.enumerate.emitted);
        reg.gauge("campaign.symmetry.shrink")
            .set(result.enumerate.emitted
                     ? double(result.enumerate.emitted
                              + result.enumerate.symmetryDuplicates)
                         / double(result.enumerate.emitted)
                     : 0.0);
        reg.gauge("campaign.wall_seconds").set(result.seconds);
        reg.gauge("campaign.decisions_per_second")
            .set(result.seconds > 0.0
                     ? double(result.decisions) / result.seconds
                     : 0.0);
        reg.gauge("campaign.store_hit_rate")
            .set(result.decisions
                     ? double(result.storeHits) / double(result.decisions)
                     : 0.0);
        reg.gauge("campaign.cache.shard_skew")
            .set(result.cacheStats.shardMean > 0.0
                     ? double(result.cacheStats.shardMax)
                         / result.cacheStats.shardMean
                     : 0.0);
        result.metrics = reg.snapshot().delta(metricsBefore);
    }

    if (progress)
        progress(snapshot());
    return result;
}

std::string
formatCampaign(const CampaignResult &r)
{
    std::ostringstream os;
    os << "universe: " << r.enumerate.emitted << " canonical cycles ("
       << r.enumerate.rotationDuplicates << " rotation duplicates, "
       << r.enumerate.unrealisable << " unrealisable";
    if (r.enumerate.symmetryDuplicates)
        os << ", " << r.enumerate.symmetryDuplicates
           << " symmetry duplicates";
    os << "), " << r.units << " tests after deduping "
       << r.duplicateTests << " repeated lowerings\n";
    os << "decisions: " << r.decisions << " across " << r.pairs
       << " model/engine pairs";
    if (r.skippedPairs)
        os << " (" << r.skippedPairs << " unsupported pairs skipped)";
    os << std::fixed << std::setprecision(1) << " in " << r.seconds
       << "s";
    if (r.seconds > 0.0)
        os << " (" << uint64_t(double(r.decisions) / r.seconds)
           << " dec/s)";
    os << "\n";
    os << "verdicts: " << r.allowed << " allowed, "
       << (r.decisions - r.allowed) << " forbidden\n";
    os << "served: " << r.storeHits << " store hits ("
       << percent(r.storeHits, r.decisions) << "), " << r.cacheHits
       << " cache hits, " << r.prescreened << " prescreened";
    if (r.storeWrites)
        os << ", " << r.storeWrites << " store writes";
    os << "\n";
    if (r.verified)
        os << "verify: " << r.verified << " sampled re-decides, "
           << r.verifyMismatches << " mismatches\n";
    for (const PairTally &t : r.tallies)
        os << "  " << model::modelName(t.model) << "/"
           << model::engineName(t.engine) << ": " << t.decided
           << " decided, " << t.allowed << " allowed, " << t.storeHits
           << " store hits\n";
    return os.str();
}

std::string
formatStoreSummary(const DecisionStore &store,
                   std::optional<ModelKind> model,
                   std::optional<bool> allowed)
{
    struct Bucket
    {
        uint64_t records = 0;
        uint64_t allowed = 0;
        uint64_t prescreened = 0;
    };
    // Index buckets by (model, engine) ordinal so the report iterates
    // in enum declaration order, independent of the store's map order.
    constexpr size_t EngineCount = 3;
    std::vector<Bucket> buckets(std::size(model::allModelKinds)
                                * EngineCount);
    std::unordered_set<uint64_t> tests;
    uint64_t matched = 0;
    store.forEach([&](const StoreRecord &rec) {
        if (model && rec.model != *model)
            return;
        if (allowed && rec.allowed != *allowed)
            return;
        ++matched;
        tests.insert(rec.testFingerprint);
        Bucket &b = buckets[size_t(rec.model) * EngineCount
                            + size_t(rec.engine)];
        ++b.records;
        b.allowed += rec.allowed ? 1 : 0;
        b.prescreened +=
            rec.prescreened != harness::PrescreenKind::None ? 1 : 0;
    });

    std::ostringstream os;
    os << "store: " << store.path() << "\n";
    os << "records: " << matched;
    if (model || allowed)
        os << " matching (of " << store.size() << " resident)";
    os << ", " << tests.size() << " distinct tests\n";
    for (ModelKind m : model::allModelKinds)
        for (Engine e : model::allEngines) {
            const Bucket &b = buckets[size_t(m) * EngineCount + size_t(e)];
            if (!b.records)
                continue;
            os << "  " << model::modelName(m) << "/"
               << model::engineName(e) << ": " << b.records
               << " records, " << b.allowed << " allowed, "
               << b.prescreened << " prescreened\n";
        }
    return os.str();
}

std::vector<Disagreement>
disagreeingTests(const DecisionStore &store, ModelKind a, ModelKind b)
{
    struct Verdict
    {
        uint64_t key = ~0ull;
        bool allowed = false;
        bool present = false;
    };
    // Smallest-key record speaks for each (test, model) side.
    std::unordered_map<uint64_t, std::pair<Verdict, Verdict>> byTest;
    store.forEach([&](const StoreRecord &rec) {
        if (rec.model != a && rec.model != b)
            return;
        auto &sides = byTest[rec.testFingerprint];
        Verdict &v = rec.model == a ? sides.first : sides.second;
        if (!v.present || rec.key < v.key)
            v = {rec.key, rec.allowed, true};
    });

    std::vector<Disagreement> out;
    for (const auto &[fp, sides] : byTest) {
        const auto &[va, vb] = sides;
        if (va.present && vb.present && va.allowed != vb.allowed)
            out.push_back({fp, va.allowed, vb.allowed});
    }
    std::sort(out.begin(), out.end(),
              [](const Disagreement &x, const Disagreement &y) {
                  return x.testFingerprint < y.testFingerprint;
              });
    return out;
}

std::string
formatDisagreements(const DecisionStore &store, ModelKind a, ModelKind b)
{
    const std::vector<Disagreement> list = disagreeingTests(store, a, b);
    std::ostringstream os;
    os << model::modelName(a) << " vs " << model::modelName(b) << ": "
       << list.size() << " disagreeing tests\n";
    constexpr size_t MaxListed = 20;
    for (size_t i = 0; i < list.size() && i < MaxListed; ++i) {
        const Disagreement &d = list[i];
        char fp[17];
        std::snprintf(fp, sizeof(fp), "%016llx",
                      static_cast<unsigned long long>(d.testFingerprint));
        os << "  test " << fp << ": " << model::modelName(a) << " "
           << (d.aAllowed ? "allows" : "forbids") << ", "
           << model::modelName(b) << " "
           << (d.bAllowed ? "allows" : "forbids") << "\n";
    }
    if (list.size() > MaxListed)
        os << "  ... and " << (list.size() - MaxListed) << " more\n";
    return os.str();
}

} // namespace gam::campaign
