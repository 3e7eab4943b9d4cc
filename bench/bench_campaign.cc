/**
 * @file
 * Campaign throughput: batched pipeline vs. its pre-batching
 * baseline, cold vs. store-resumed, and the symmetry quotient.
 *
 * Three sections, each printing its numbers and contributing gates:
 *
 *  1. **Batched pipeline speedup.**  The same bounded campaign (every
 *     canonical cycle up to length 4, the four cat-and-axiom models,
 *     axiomatic engine) runs once in the pre-batching configuration
 *     and once through runCampaign() (fused decideBatch pipeline,
 *     group-buffered store).  The baseline is the loop the driver ran
 *     before batching, kept here rather than in the library: the same
 *     universe, unit i decided in shard i mod N on the same worker
 *     count, one decide() per (test, model) through one
 *     DecisionCache, into a store that flushes every record.  Gate:
 *     the batched cold pass must be >= 2x the baseline's
 *     decisions/second, or the fused enumeration (one shared walk
 *     deciding every model of a test) has quietly stopped paying for
 *     itself.
 *
 *  2. **Store resume.**  The batched campaign runs again against its
 *     populated store.  Gates: >= 99% of the resumed decisions served
 *     from the store (a drop means persisted keys stopped matching
 *     decide()'s query keys), and the resumed pass >= 3x faster than
 *     the cold one (verdict-only reconstruction is hash-map lookups).
 *
 *  3. **Symmetry quotient.**  Enumerates the length-<=6 universe in
 *     both canonical forms and a length-7 fence/dep-free slice, then
 *     decides the slice.  Gate: the full quotient (rotation x
 *     reversal x value/address renaming) must shrink the rotation
 *     universe >= 1.5x at length <= 6 -- the reduction that makes
 *     length 7 reachable at all.
 *
 * Emits BENCH_campaign.json (sections 1-2) and
 * BENCH_campaign_symmetry.json (section 3) in the gam-metrics-v1
 * snapshot schema for CI artifact upload and trend tracking; the
 * gates ride along as gauges (bench.campaign.gate_*).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/thread_pool.hh"
#include "campaign/driver.hh"
#include "campaign/store.hh"
#include "harness/decision.hh"
#include "litmus/generator.hh"
#include "obs/registry.hh"

namespace
{

using namespace gam;

campaign::CampaignResult
pass(const campaign::CampaignOptions &options,
     campaign::DecisionStore *store, double *wall)
{
    const auto start = std::chrono::steady_clock::now();
    const campaign::CampaignResult result =
        campaign::runCampaign(options, store);
    *wall = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
    return result;
}

/** The per-query baseline's static partition of the units. */
constexpr unsigned PerQueryShards = 16;

/**
 * The per-query baseline: @p options' universe enumerated and deduped
 * by each cycle's testFingerprint as runCampaign() does, then each
 * shard's units (unit i in shard i mod PerQueryShards) decided on
 * options.threads workers with one harness::decide() per (test, model,
 * engine) through one DecisionCache, flushing @p store as each shard
 * finishes.  Returns the number of decisions.
 */
uint64_t
perQueryPass(const campaign::CampaignOptions &options,
             campaign::DecisionStore *store, double *wall)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<campaign::CanonicalCycle> units;
    std::unordered_set<uint64_t> seen;
    campaign::enumerateCycles(
        options.enumerate, [&](const campaign::CanonicalCycle &cycle) {
            if (seen.insert(cycle.testFingerprint).second)
                units.push_back(cycle);
            return true;
        });
    std::vector<std::pair<model::ModelKind, model::Engine>> pairs;
    for (model::ModelKind m : options.models)
        for (model::Engine e : options.engines)
            if (model::supportsEngine(m, e))
                pairs.emplace_back(m, e);

    harness::DecisionCache cache(options.cacheEntries);
    std::atomic<uint64_t> decisions{0};
    ThreadPool pool(options.threads);
    for (unsigned s = 0; s < PerQueryShards; ++s) {
        pool.submit([&, s] {
            for (size_t i = s; i < units.size(); i += PerQueryShards) {
                const campaign::CanonicalCycle &cycle = units[i];
                const auto test = litmus::testFromCycle(
                    cycle.name, cycle.edges, cycle.numLocations);
                for (const auto &[m, e] : pairs) {
                    harness::Query q;
                    q.test = &*test;
                    q.model = m;
                    q.engine = harness::engineSelectOf(e);
                    q.options = options.run;
                    harness::decide(q, &cache, store);
                    decisions.fetch_add(1, std::memory_order_relaxed);
                }
            }
            if (store)
                store->flush();
        });
    }
    pool.wait();
    *wall = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
    return decisions.load();
}

uint64_t
countClasses(campaign::EnumerateOptions options,
             campaign::CanonicalForm form, double *wall)
{
    options.canonical = form;
    const auto start = std::chrono::steady_clock::now();
    const campaign::EnumerateStats stats = campaign::enumerateCycles(
        options, [](const campaign::CanonicalCycle &) { return true; });
    *wall = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
    return stats.emitted;
}

} // namespace

int
main()
{
    const char *store_path = "bench_campaign.store";
    const char *baseline_path = "bench_campaign_baseline.store";
    std::remove(store_path);
    std::remove(baseline_path);

    campaign::CampaignOptions options;
    options.enumerate.maxLen = 4;
    options.threads = 2;

    // -------- section 1: batched pipeline vs. pre-batching baseline
    double baseline_s = 0.0, cold_s = 0.0, resumed_s = 0.0;
    uint64_t baseline_decisions = 0;
    campaign::CampaignResult cold, resumed;
    {
        // The baseline is the campaign as it shipped before the fused
        // decideBatch pipeline: one decide() per (test, model) and a
        // store that flushes every record.
        campaign::StoreOptions per_record;
        per_record.flushEveryRecords = 1;
        per_record.flushIntervalMs = 0;
        campaign::DecisionStore store(baseline_path, per_record);
        baseline_decisions = perQueryPass(options, &store, &baseline_s);
    }
    std::remove(baseline_path);

    // ------------------------- section 2: cold vs. store-resumed
    {
        campaign::DecisionStore store(store_path);
        cold = pass(options, &store, &cold_s);
    }
    {
        // Reopen: the resumed pass also pays the store's recovery
        // scan, exactly like a restarted campaign would.
        campaign::DecisionStore store(store_path);
        resumed = pass(options, &store, &resumed_s);
    }
    std::remove(store_path);

    const double baseline_rate =
        baseline_s > 0 ? double(baseline_decisions) / baseline_s : 0.0;
    const double cold_rate =
        cold_s > 0 ? double(cold.decisions) / cold_s : 0.0;
    const double resumed_rate =
        resumed_s > 0 ? double(resumed.decisions) / resumed_s : 0.0;
    const double batch_speedup =
        baseline_rate > 0 ? cold_rate / baseline_rate : 0.0;
    const double hit_rate = resumed.decisions > 0
        ? double(resumed.storeHits) / double(resumed.decisions)
        : 0.0;
    const double speedup = resumed_s > 0 ? cold_s / resumed_s : 0.0;

    std::printf("campaign benchmark: %llu canonical tests (cycles up "
                "to length %u) x %zu models\n\n",
                static_cast<unsigned long long>(cold.units),
                options.enumerate.maxLen, options.models.size());
    std::printf("baseline pass: %8llu decisions in %7.3fs  (%9.0f "
                "dec/s, per-query loop over %u shards, per-record "
                "flush)\n",
                static_cast<unsigned long long>(baseline_decisions),
                baseline_s, baseline_rate, PerQueryShards);
    std::printf("cold     pass: %8llu decisions in %7.3fs  (%9.0f "
                "dec/s, %llu store hits)\n",
                static_cast<unsigned long long>(cold.decisions), cold_s,
                cold_rate,
                static_cast<unsigned long long>(cold.storeHits));
    std::printf("resumed  pass: %8llu decisions in %7.3fs  (%9.0f "
                "dec/s, %llu store hits)\n",
                static_cast<unsigned long long>(resumed.decisions),
                resumed_s, resumed_rate,
                static_cast<unsigned long long>(resumed.storeHits));
    std::printf("\nbatched-pipeline speedup %.2fx, store hit rate "
                "%.2f%%, store-resumed speedup %.2fx\n",
                batch_speedup, hit_rate * 100.0, speedup);

    {
        obs::MetricRegistry reg;
        reg.counter("bench.campaign.max_cycle_len")
            .inc(options.enumerate.maxLen);
        reg.counter("bench.campaign.tests").inc(cold.units);
        reg.counter("bench.campaign.models").inc(options.models.size());
        reg.counter("bench.campaign.decisions").inc(cold.decisions);
        reg.gauge("bench.campaign.baseline_seconds").set(baseline_s);
        reg.gauge("bench.campaign.baseline_decisions_per_second")
            .set(baseline_rate);
        reg.gauge("bench.campaign.cold_seconds").set(cold_s);
        reg.gauge("bench.campaign.cold_decisions_per_second")
            .set(cold_rate);
        reg.gauge("bench.campaign.resumed_seconds").set(resumed_s);
        reg.gauge("bench.campaign.resumed_decisions_per_second")
            .set(resumed_rate);
        reg.gauge("bench.campaign.batch_speedup").set(batch_speedup);
        reg.gauge("bench.campaign.store_hit_rate").set(hit_rate);
        reg.gauge("bench.campaign.resumed_speedup").set(speedup);
        reg.gauge("bench.campaign.gate_batch_speedup_min").set(2.0);
        reg.gauge("bench.campaign.gate_hit_rate_min").set(0.99);
        reg.gauge("bench.campaign.gate_resumed_speedup_min").set(3.0);
        std::ofstream json("BENCH_campaign.json", std::ios::trunc);
        json << reg.snapshot().toJson();
    }

    // ------------------------------- section 3: symmetry quotient
    campaign::EnumerateOptions six = options.enumerate;
    six.maxLen = 6;
    double rot6_s = 0.0, full6_s = 0.0;
    const uint64_t rot6 =
        countClasses(six, campaign::CanonicalForm::Rotation, &rot6_s);
    const uint64_t full6 =
        countClasses(six, campaign::CanonicalForm::Full, &full6_s);
    const double shrink6 = full6 > 0 ? double(rot6) / double(full6) : 0.0;

    campaign::CampaignOptions seven;
    seven.enumerate.minLen = 7;
    seven.enumerate.maxLen = 7;
    seven.enumerate.fences = false;
    seven.enumerate.deps = false;
    seven.enumerate.canonical = campaign::CanonicalForm::Full;
    seven.threads = 2;
    double rot7_s = 0.0, full7_s = 0.0, seven_s = 0.0;
    const uint64_t rot7 = countClasses(
        seven.enumerate, campaign::CanonicalForm::Rotation, &rot7_s);
    const uint64_t full7 = countClasses(
        seven.enumerate, campaign::CanonicalForm::Full, &full7_s);
    const campaign::CampaignResult r7 =
        pass(seven, nullptr, &seven_s);
    const double seven_rate =
        seven_s > 0 ? double(r7.decisions) / seven_s : 0.0;

    std::printf("\nsymmetry quotient, length <= 6: %llu rotation "
                "classes -> %llu full classes (%.2fx shrink, "
                "%.2fs/%.2fs to enumerate)\n",
                static_cast<unsigned long long>(rot6),
                static_cast<unsigned long long>(full6), shrink6,
                rot6_s, full6_s);
    std::printf("length-7 slice (no fences, no deps): %llu rotation "
                "-> %llu full classes; %llu tests, %llu decisions in "
                "%.2fs (%.0f dec/s)\n",
                static_cast<unsigned long long>(rot7),
                static_cast<unsigned long long>(full7),
                static_cast<unsigned long long>(r7.units),
                static_cast<unsigned long long>(r7.decisions), seven_s,
                seven_rate);

    {
        obs::MetricRegistry reg;
        reg.counter("bench.campaign_symmetry.len6_rotation_classes")
            .inc(rot6);
        reg.counter("bench.campaign_symmetry.len6_full_classes")
            .inc(full6);
        reg.gauge("bench.campaign_symmetry.len6_shrink").set(shrink6);
        reg.counter("bench.campaign_symmetry.len7_rotation_classes")
            .inc(rot7);
        reg.counter("bench.campaign_symmetry.len7_full_classes")
            .inc(full7);
        reg.counter("bench.campaign_symmetry.len7_tests").inc(r7.units);
        reg.counter("bench.campaign_symmetry.len7_decisions")
            .inc(r7.decisions);
        reg.gauge("bench.campaign_symmetry.len7_seconds").set(seven_s);
        reg.gauge("bench.campaign_symmetry.len7_decisions_per_second")
            .set(seven_rate);
        reg.gauge("bench.campaign_symmetry.gate_len6_shrink_min")
            .set(1.5);
        std::ofstream json("BENCH_campaign_symmetry.json",
                           std::ios::trunc);
        json << reg.snapshot().toJson();
    }

    bool ok = true;
    if (batch_speedup < 2.0) {
        std::printf("FAIL: batched cold throughput %.2fx the "
                    "pre-batching baseline, below 2x\n",
                    batch_speedup);
        ok = false;
    }
    if (hit_rate < 0.99) {
        std::printf("FAIL: store hit rate %.2f%% below 99%% -- "
                    "persisted keys no longer match decide()'s query "
                    "keys\n",
                    hit_rate * 100.0);
        ok = false;
    }
    if (speedup < 3.0) {
        std::printf("FAIL: store-resumed speedup %.2fx below 3x\n",
                    speedup);
        ok = false;
    }
    if (shrink6 < 1.5) {
        std::printf("FAIL: full canonicalization shrinks the "
                    "length-<=6 rotation universe only %.2fx, below "
                    "1.5x\n",
                    shrink6);
        ok = false;
    }
    if (!ok)
        return 1;
    std::printf("PASS\n");
    return 0;
}
