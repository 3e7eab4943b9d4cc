/**
 * @file
 * The `campaign-cold` and `campaign-warm` workloads: the batch path.
 *
 * Both run campaign::runCampaign over the fixed Full-quotient universe
 * of every canonical cycle up to length 5 (4,433 classes lowering to
 * 4,402 tests) under the default four models: 17,608 decisions per
 * campaign.  The universe ignores the seed; the seed only picks the
 * tests the operational oracle re-decides.
 *
 *  - campaign-cold decides into a fresh store every time: the fused
 *    decideBatch, rf/coherence enumeration, filter lanes, ppo and store
 *    appends dominate.
 *  - campaign-warm re-runs the same universe against a store populated
 *    during set-up: the same layers used the other way, store reads
 *    instead of writes and almost no engine work.  An engine
 *    optimisation should read "no change" here.
 *
 * Three workers, not four: on a shared 4-core machine a fourth worker
 * competes with the coordinator and other tenants, and cold throughput
 * swung 7.1k-12.6k dec/s with 4 workers against 9.7k-10.3k with 3.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <unordered_set>

#include "analysis/prescreen.hh"
#include "base/rng.hh"
#include "bench.hh"
#include "campaign/driver.hh"
#include "campaign/store.hh"
#include "harness/decision.hh"
#include "litmus/generator.hh"
#include "obs/registry.hh"

namespace pipebench
{

namespace
{

using namespace gam;
using model::ModelKind;

constexpr unsigned Workers = 3;
/** Set-ups per run, cold and warm: the median of one cold set-up (an
 *  enumeration of about 0.13 s) needs many repeats to hold still; a
 *  warm one also decides a whole campaign. */
constexpr int ColdSetupRepeats = 15;
constexpr int WarmSetupRepeats = 3;
/** Tests (x 4 models) the operational oracle re-decides per run. */
constexpr size_t OracleTests = 128;
/** The campaign driver decides this many units per decideBatch(). */
constexpr size_t ChunkUnits = 64;

/** The pinned universe: tests, decisions and allowed tallies. */
constexpr uint64_t ExpectedTests = 4402;
constexpr uint64_t ExpectedDecisions = 4 * ExpectedTests;
struct Tally
{
    ModelKind model;
    uint64_t allowed;
};
constexpr Tally ExpectedAllowed[] = {{ModelKind::SC, 359},
                                     {ModelKind::TSO, 451},
                                     {ModelKind::GAM0, 890},
                                     {ModelKind::GAM, 755}};

campaign::CampaignOptions
universeOptions()
{
    campaign::CampaignOptions o;
    o.enumerate.maxLen = 5;
    o.enumerate.canonical = campaign::CanonicalForm::Full;
    o.threads = Workers;
    return o;
}

/** The campaign's deduped tests, as its prepare step lowers them. */
struct Universe
{
    std::vector<litmus::LitmusTest> tests;
    campaign::EnumerateStats stats;
};

Universe
enumerateUniverse(const campaign::EnumerateOptions &options)
{
    Universe u;
    std::unordered_set<uint64_t> seen;
    u.stats = campaign::enumerateCycles(
        options, [&](const campaign::CanonicalCycle &cycle) {
            auto test = litmus::testFromCycle(cycle.name, cycle.edges,
                                              cycle.numLocations);
            if (test && seen.insert(litmus::fingerprint(*test)).second)
                u.tests.push_back(std::move(*test));
            return true;
        });
    return u;
}

harness::Query
axiomaticQuery(const litmus::LitmusTest &test, ModelKind model)
{
    harness::Query q;
    q.test = &test;
    q.model = model;
    q.engine = harness::EngineSelect::Axiomatic;
    q.options.threads = 1;
    return q;
}

/** One campaign into (and through) the store at @p path. */
campaign::CampaignResult
campaignPass(const std::string &path)
{
    campaign::DecisionStore store(path);
    return campaign::runCampaign(universeOptions(), &store);
}

/** Failures in one campaign's result against the pinned universe. */
uint64_t
countFailures(const campaign::CampaignResult &res, bool warm)
{
    uint64_t failed = res.decisions < ExpectedDecisions
        ? ExpectedDecisions - res.decisions : 0;
    failed += res.units != ExpectedTests;
    for (const Tally &want : ExpectedAllowed) {
        uint64_t allowed = 0;
        for (const campaign::PairTally &t : res.tallies)
            if (t.model == want.model)
                allowed += t.allowed;
        failed += allowed > want.allowed ? allowed - want.allowed
                                         : want.allowed - allowed;
    }
    if (warm)
        failed += res.decisions - res.storeHits;
    return failed + res.verifyMismatches;
}

/**
 * The independent oracle, outside any timed phase: re-decide a seeded
 * sample of the universe's tests through the operational explorer and
 * hold each verdict against the record the campaign stored.  The
 * prescreen is off, so a screened verdict (value cover or SC
 * delegation) is checked against a full exploration, not against the
 * prescreen again.
 */
uint64_t
oracleFailures(const Universe &u, const std::string &path, uint64_t seed,
               Report &r)
{
    campaign::DecisionStore store(path);
    Rng rng(seed);
    uint64_t failed = 0, checked = 0, screened = 0;
    for (size_t i = 0; i < OracleTests; ++i) {
        const litmus::LitmusTest &test = u.tests[rng.range(u.tests.size())];
        for (const Tally &t : ExpectedAllowed) {
            harness::Query q = axiomaticQuery(test, t.model);
            auto rec = store.record(
                harness::queryKey(q, model::Engine::Axiomatic));
            q.engine = harness::EngineSelect::Operational;
            q.options.prescreen = false;
            const harness::Decision d = harness::decide(q, nullptr);
            ++checked;
            screened += rec
                && rec->prescreened != harness::PrescreenKind::None;
            failed += !rec || !d.complete || rec->allowed != d.allowed;
        }
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "operational oracle (prescreen off): %llu sampled "
                  "verdicts, %llu of them screened, %llu disagree with "
                  "the store",
                  static_cast<unsigned long long>(checked),
                  static_cast<unsigned long long>(screened),
                  static_cast<unsigned long long>(failed));
    r.note(line);
    return failed;
}

std::string
storePath(const Args &args, bool warm)
{
    return args.workdir + (warm ? "/campaign-warm.store"
                                : "/campaign-cold.store");
}

Report
timedRun(const Args &args, bool warm)
{
    Report r;
    const std::string path = storePath(args, warm);
    const campaign::CampaignOptions options = universeOptions();

    // Set-up: the reference universe for the oracle and, for the warm
    // workload, the populated store it reads from.
    Universe universe;
    std::vector<double> setups;
    const int repeats = warm ? WarmSetupRepeats : ColdSetupRepeats;
    for (int i = 0; i < repeats; ++i) {
        const auto start = Clock::now();
        universe = enumerateUniverse(options.enumerate);
        if (warm) {
            std::remove(path.c_str());
            campaignPass(path);
        }
        setups.push_back(secondsSince(start));
    }
    // The process's first campaign runs slower (worker start-up, heap
    // growth) and would set the cold p99; keep it off the clock, as the
    // warm set-up does.
    if (!warm) {
        std::remove(path.c_str());
        campaignPass(path);
    }

    // Per-campaign figures, reported as medians: one campaign disturbed
    // by another tenant of the machine moves the percentiles, not the
    // median.
    std::vector<double> latencies, rates, cpuPerDecision;
    const auto start = Clock::now();
    do {
        if (!warm)
            std::remove(path.c_str());
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        const campaign::CampaignResult res = campaignPass(path);
        const double wall = secondsSince(t0);
        const double cpu = cpuSeconds() - cpu0;
        latencies.push_back(wall * 1e6);
        rates.push_back(share(double(res.decisions), wall));
        cpuPerDecision.push_back(share(cpu * 1e6, double(res.decisions)));
        r.attempted += ExpectedDecisions;
        r.failed += countFailures(res, warm);
    } while (secondsSince(start) < args.seconds);

    r.failed += oracleFailures(universe, path, args.seed, r);
    std::remove(path.c_str());

    char line[200];
    std::snprintf(line, sizeof(line),
                  "%zu campaigns of %llu decisions, %u workers; latency "
                  "samples are runCampaign calls: min %.0f, median %.0f, "
                  "max %.0f us",
                  latencies.size(),
                  static_cast<unsigned long long>(ExpectedDecisions),
                  Workers, percentile(latencies, 0),
                  percentile(latencies, 50), percentile(latencies, 100));
    r.note(line);

    r.add("decisions_per_s", median(rates), "1/s");
    r.add("latency_p50_us", percentile(latencies, 50), "us");
    r.add("latency_p99_us", percentile(latencies, 99), "us");
    r.add("cpu_us_per_decision", median(cpuPerDecision), "us");
    r.add("peak_rss_mb", peakRssMb(), "MB");
    r.add("setup_s", median(setups), "s");
    return r;
}

/** What one traced campaign pass left behind. */
struct CampaignPass
{
    campaign::CampaignResult result;
    campaign::StoreStats store;
    TracedPass traced;
};

/**
 * Replay the layers runCampaign spans, serially, on the same inputs:
 * enumeration; lowering and fingerprinting in the prepare step and
 * again per unit in the workers; a cache lookup and a store load per
 * query; and, when the traced pass ran engines, the prescreen and the
 * fused decideBatch with the prescreen off, followed by the store
 * appends it made.
 */
void
replayLayers(const std::string &path, bool ranEngines, LayerSpans &spans,
             Universe &u)
{
    const campaign::CampaignOptions options = universeOptions();
    std::vector<campaign::CanonicalCycle> cycles;
    u.stats = spans.time("campaign.enumerate", [&] {
        return campaign::enumerateCycles(
            options.enumerate, [&](const campaign::CanonicalCycle &c) {
                cycles.push_back(c);
                return true;
            });
    });
    std::unordered_set<uint64_t> seen;
    std::vector<const campaign::CanonicalCycle *> units;
    for (const campaign::CanonicalCycle &c : cycles) {
        auto test = spans.time("litmus.lower", [&] {
            return litmus::testFromCycle(c.name, c.edges, c.numLocations);
        });
        const uint64_t fp = spans.time(
            "litmus.fingerprint", [&] { return litmus::fingerprint(*test); });
        if (seen.insert(fp).second)
            units.push_back(&c);
    }
    u.tests.clear();
    for (const campaign::CanonicalCycle *unit : units) {
        const campaign::CanonicalCycle &c = *unit;
        auto test = spans.time("litmus.lower", [&] {
            return litmus::testFromCycle(c.name, c.edges, c.numLocations);
        });
        spans.time("litmus.fingerprint",
                   [&] { return litmus::fingerprint(*test); });
        u.tests.push_back(std::move(*test));
    }

    std::vector<harness::Query> queries;
    std::vector<uint64_t> keys;
    for (const litmus::LitmusTest &test : u.tests)
        for (const Tally &t : ExpectedAllowed) {
            queries.push_back(axiomaticQuery(test, t.model));
            keys.push_back(harness::queryKey(queries.back(),
                                             model::Engine::Axiomatic));
        }

    harness::DecisionCache cache(options.cacheEntries);
    for (uint64_t key : keys)
        spans.time("harness.cache", [&] { return cache.lookup(key); });

    auto store = spans.time("campaign.store.open", [&] {
        return std::make_unique<campaign::DecisionStore>(path);
    });
    for (uint64_t key : keys)
        spans.time("campaign.store.load", [&] { return store->load(key); });
    if (!ranEngines)
        return;

    for (const litmus::LitmusTest &test : u.tests)
        spans.time("analysis.prescreen", [&] {
            analysis::PrescreenAnalysis analysis(test);
            for (const Tally &t : ExpectedAllowed)
                analysis.screen(t.model);
        });
    std::vector<harness::Decision> decisions;
    const size_t chunk = ChunkUnits * std::size(ExpectedAllowed);
    for (size_t begin = 0; begin < queries.size(); begin += chunk) {
        std::vector<harness::Query> batch(
            queries.begin() + begin,
            queries.begin() + std::min(begin + chunk, queries.size()));
        for (harness::Query &q : batch)
            q.options.prescreen = false;
        auto out = spans.time("axiomatic", [&] {
            return harness::decideBatch(batch, nullptr, nullptr);
        });
        decisions.insert(decisions.end(), out.begin(), out.end());
    }
    for (size_t i = 0; i < queries.size(); ++i)
        spans.time("campaign.store.append", [&] {
            store->store(keys[i], queries[i], decisions[i]);
        });
    spans.time("campaign.store.append", [&] { store->flush(); });
}

Report
tracedRun(const Args &args, bool warm)
{
    Report r;
    std::map<std::string, double> out = emptyLayerValues();
    LayerSpans spans;
    const std::string path = storePath(args, warm);
    std::remove(path.c_str());
    // Populates the warm store; for cold, keeps the process's first,
    // slower campaign out of the overhead ratio.
    campaignPass(path);

    // Untraced and traced passes alternate so drift on a shared machine
    // hits both sides.  The traced side wraps runCampaign in a span and
    // takes the registry delta and CPU time around it.
    const int rounds = warm ? 8 : 2;
    double untracedWall = 0.0, tracedWall = 0.0, tracedCpu = 0.0;
    CampaignPass first;
    bool countsRepeat = true;
    for (int round = 0; round < rounds; ++round) {
        if (!warm)
            std::remove(path.c_str());
        const auto start = Clock::now();
        campaignPass(path);
        untracedWall += secondsSince(start);

        if (!warm)
            std::remove(path.c_str());
        CampaignPass pass;
        const obs::MetricSnapshot before = obs::metrics().snapshot();
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        {
            campaign::DecisionStore store(path);
            pass.result = spans.time("campaign.run", [&] {
                return campaign::runCampaign(universeOptions(), &store);
            });
            pass.store = store.stats();
        }
        tracedWall += secondsSince(t0);
        tracedCpu += cpuSeconds() - cpu0;
        pass.traced.delta = obs::metrics().snapshot().delta(before);
        r.attempted += ExpectedDecisions;
        r.failed += countFailures(pass.result, warm);
        if (round == 0) {
            first = pass;
            continue;
        }
        for (const char *counter :
             {"enum.runs", "enum.rf_candidates", "enum.co_candidates",
              "enum.partials_pruned", "enum.value_consistent",
              "decide.prescreen.sc_delegate"})
            countsRepeat = countsRepeat
                && pass.traced.delta.counter(counter)
                    == first.traced.delta.counter(counter);
    }
    const campaign::CampaignResult &res = first.result;
    TracedPass &traced = first.traced;
    traced.prescreenCalls = res.decisions - res.cacheHits - res.storeHits;
    traced.wall = tracedWall / rounds;
    traced.cpu = tracedCpu / rounds;
    traced.overhead = share(tracedWall, untracedWall);

    // The warm replay reads the populated store; the cold one appends
    // into a fresh file, leaving the last traced pass's store for the
    // oracle.
    Universe u;
    const std::string replayPath = warm ? path : path + ".replay";
    if (!warm)
        std::remove(replayPath.c_str());
    replayLayers(replayPath, res.storeWrites > 0, spans, u);
    if (!warm)
        std::remove(replayPath.c_str());
    r.failed += oracleFailures(u, path, args.seed, r);
    std::remove(path.c_str());

    const obs::MetricSnapshot &delta = traced.delta;
    const uint64_t groups = delta.counter("decide.batch.fused_groups");
    const uint64_t fused = delta.counter("decide.batch.fused_queries");

    out["campaign.enumerate_s"] = spans.seconds("campaign.enumerate");
    out["campaign.classes"] = double(u.stats.emitted);
    out["campaign.symmetry_duplicates"] =
        double(u.stats.symmetryDuplicates);
    out["campaign.store.open_s"] = spans.seconds("campaign.store.open");
    out["campaign.store.load_us"] = spans.meanUs("campaign.store.load");
    out["campaign.store.hit_rate"] =
        share(double(first.store.hits),
              double(first.store.hits + first.store.misses));
    out["campaign.store.append_s"] = spans.seconds("campaign.store.append");
    out["campaign.store.writes"] = double(first.store.appended);
    out["campaign.worker_busy_share"] =
        share(traced.cpu, traced.wall * Workers);
    out["campaign.self_s"] = out["campaign.enumerate_s"]
        + out["campaign.store.open_s"]
        + spans.seconds("campaign.store.load")
        + out["campaign.store.append_s"];
    out["litmus.lower_s"] = spans.seconds("litmus.lower");
    out["litmus.fingerprint_s"] = spans.seconds("litmus.fingerprint");
    out["litmus.self_s"] =
        out["litmus.lower_s"] + out["litmus.fingerprint_s"];
    out["harness.cache.lookup_us"] = spans.meanUs("harness.cache");
    out["harness.cache.hits"] = double(res.cacheStats.hits);
    out["harness.cache.hit_rate"] =
        share(double(res.cacheStats.hits),
              double(res.cacheStats.hits + res.cacheStats.misses));
    out["harness.self_s"] = spans.seconds("harness.cache");
    out["harness.batch.fused_groups"] = double(groups);
    out["harness.batch.fused_queries"] = double(fused);
    out["harness.batch.fan_in"] = share(double(fused), double(groups));
    // The replay screens each test once (the batch shares one value
    // fixpoint per test) and all four models against it.
    out["analysis.prescreen_us"] =
        share(spans.seconds("analysis.prescreen") * 1e6,
              double(spans.calls("analysis.prescreen")
                     * std::size(ExpectedAllowed)));
    out["analysis.self_s"] = spans.seconds("analysis.prescreen");
    out["axiomatic.enumerate_s"] = spans.seconds("axiomatic");
    addPassLayers(out, traced,
                  {"campaign.self_s", "litmus.self_s", "harness.self_s",
                   "analysis.self_s", "axiomatic.enumerate_s"});

    char line[200];
    std::snprintf(line, sizeof(line),
                  "exact work counts repeat across %d traced passes: %s "
                  "(enum.runs %llu, value_consistent %llu)",
                  rounds, countsRepeat ? "yes" : "NO",
                  static_cast<unsigned long long>(
                      delta.counter("enum.runs")),
                  static_cast<unsigned long long>(
                      delta.counter("enum.value_consistent")));
    r.note(line);
    std::snprintf(line, sizeof(line),
                  "racy split (never compared exactly): %llu cache hits, "
                  "%llu store hits, %llu store writes",
                  static_cast<unsigned long long>(res.cacheHits),
                  static_cast<unsigned long long>(res.storeHits),
                  static_cast<unsigned long long>(res.storeWrites));
    r.note(line);
    addLayerMetrics(r, out);
    return r;
}

} // namespace

Report
runCampaignCold(const Args &args)
{
    return args.trace ? tracedRun(args, false) : timedRun(args, false);
}

Report
runCampaignWarm(const Args &args)
{
    return args.trace ? tracedRun(args, true) : timedRun(args, true);
}

} // namespace pipebench
