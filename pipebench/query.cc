/**
 * @file
 * The `query` workload: the interactive and fuzzing path.
 *
 * One client, closed loop, RunOptions::threads = 1.  A seeded stream
 * of generated tests (litmus::generateTest with the default 2-4
 * thread, 3-6 edge mix) is decided under SC/TSO/GAM0/GAM by each of
 * the axiomatic, cat and operational engines, one decide() per query,
 * through one DecisionCache kept for the whole run.  A seeded quarter
 * of the calls re-issue an earlier query, the access pattern of fuzz
 * shrinking, fence synthesis and matrix re-runs.  This is where the
 * inline decide(), the prescreen, the cache, the cat engine and the
 * operational explorer do their work; the campaigns barely touch them.
 *
 * Correctness: the operational explorer is the independent oracle.
 * Every axiomatic and cat verdict must equal the operational verdict
 * on the same (test, model), and every re-issued query must repeat its
 * first verdict.  After the clock stops, a seeded sample of pairs is
 * re-decided operationally with the prescreen off (oracleFailures).
 */

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>

#include "analysis/prescreen.hh"
#include "base/rng.hh"
#include "bench.hh"
#include "cat/compile.hh"
#include "cat/engine.hh"
#include "harness/decision.hh"
#include "litmus/generator.hh"
#include "obs/registry.hh"

namespace pipebench
{

namespace
{

using namespace gam;
using harness::EngineSelect;
using model::ModelKind;

constexpr ModelKind Models[] = {ModelKind::SC, ModelKind::TSO,
                                ModelKind::GAM0, ModelKind::GAM};
constexpr EngineSelect Engines[] = {EngineSelect::Axiomatic,
                                    EngineSelect::Cat,
                                    EngineSelect::Operational};
constexpr size_t CallsPerTest = std::size(Models) * std::size(Engines);
/** Index of the independent oracle in Engines. */
constexpr uint8_t Operational = 2;
constexpr int SetupRepeats = 5;
/** Tests generated per requested second: comfortably more than one
 *  second of the loop decides on a 4-core x86 machine, so the timed
 *  phase ends on the clock, not on the stream. */
constexpr uint64_t TestsPerSecond = 400;
/** The traced run decides a fixed prefix of the stream. */
constexpr uint32_t TracedTests = 150;
/** Tests (x 4 models) the operational oracle re-decides per run. */
constexpr size_t OracleTests = 500;

struct Call
{
    uint32_t test = 0;
    uint8_t model = 0;
    uint8_t engine = 0;
    /** Index of the call this one re-issues; -1 for a fresh query. */
    int64_t repeatOf = -1;
};

struct Stream
{
    std::vector<litmus::LitmusTest> tests;
    std::vector<Call> calls;
    /** Call index of each test's fresh (model, engine) query. */
    std::vector<int64_t> fresh;
};

/** What the correctness check and the layer replay need of a call. */
struct Verdict
{
    bool issued = false;
    bool allowed = false;
    bool complete = false;
    bool cacheHit = false;
    harness::PrescreenKind prescreened = harness::PrescreenKind::None;
};

void
generateTests(Stream &s, uint64_t seed, uint64_t count)
{
    s.tests.clear();
    s.tests.reserve(count);
    for (uint64_t i = 0; i < count; ++i)
        s.tests.push_back(litmus::generateTest(seed, i));
}

/** Index into Stream::fresh of (test, model, engine). */
size_t
freshSlot(uint32_t test, uint8_t model, uint8_t engine)
{
    return test * CallsPerTest + model * std::size(Engines) + engine;
}

/** The call order: each test's fresh queries in (model, engine) order.
 *  Every call slot is, with probability 1/4, a re-issue of a uniformly
 *  chosen earlier call instead, so a quarter of all calls repeat. */
void
planCalls(Stream &s, uint64_t seed)
{
    Rng rng(seed ^ 0x51ed270b27a5c3d1ull);
    s.calls.clear();
    s.fresh.assign(s.tests.size() * CallsPerTest, -1);
    for (uint32_t t = 0; t < s.tests.size(); ++t) {
        for (uint8_t m = 0; m < std::size(Models); ++m) {
            for (uint8_t e = 0; e < std::size(Engines); ++e) {
                while (!s.calls.empty() && rng.chance(1, 4)) {
                    Call repeat = s.calls[rng.range(s.calls.size())];
                    if (repeat.repeatOf < 0)
                        repeat.repeatOf = s.fresh[freshSlot(
                            repeat.test, repeat.model, repeat.engine)];
                    s.calls.push_back(repeat);
                }
                s.fresh[freshSlot(t, m, e)] = int64_t(s.calls.size());
                s.calls.push_back({t, m, e, -1});
            }
        }
    }
}

harness::Query
queryFor(const Stream &s, const Call &c)
{
    harness::Query q;
    q.test = &s.tests[c.test];
    q.model = Models[c.model];
    q.engine = Engines[c.engine];
    q.options.threads = 1;
    return q;
}

Verdict
verdictOf(const harness::Decision &d)
{
    return {true, d.allowed, d.complete, d.cacheHit, d.prescreened};
}

/**
 * Count failures among the issued calls: incomplete decisions,
 * axiomatic/cat verdicts differing from the operational one on the
 * same (test, model), and re-issued queries changing their verdict.
 */
uint64_t
countFailures(const Stream &s, const std::vector<Verdict> &v)
{
    uint64_t failed = 0;
    for (size_t i = 0; i < v.size() && v[i].issued; ++i) {
        const Call &c = s.calls[i];
        if (!v[i].complete) {
            ++failed;
            continue;
        }
        if (c.repeatOf >= 0) {
            failed += v[i].allowed != v[size_t(c.repeatOf)].allowed;
            continue;
        }
        if (c.engine == Operational)
            continue;
        const size_t ref =
            size_t(s.fresh[freshSlot(c.test, c.model, Operational)]);
        if (v[ref].issued && v[ref].complete)
            failed += v[i].allowed != v[ref].allowed;
    }
    return failed;
}

/**
 * The independent oracle, after the clock stops: re-decide every
 * (test, model) pair of a seeded sample of fully issued tests through
 * the operational explorer with the prescreen off, and hold each
 * engine's issued verdict on the pair against it.  With the prescreen
 * on, all three engines return the prescreen's verdict for a screened
 * pair, so countFailures() cannot catch a wrong prescreen; this can.
 */
uint64_t
oracleFailures(const Stream &s, const std::vector<Verdict> &v,
               size_t issued, uint64_t seed, Report &r)
{
    uint32_t tests = 0;
    while (tests < s.tests.size()
           && size_t(s.fresh[freshSlot(tests, std::size(Models) - 1,
                                       Operational)]) < issued)
        ++tests;
    std::vector<uint32_t> sample(tests);
    for (uint32_t t = 0; t < tests; ++t)
        sample[t] = t;
    Rng rng(seed ^ 0x0c3a1e5d7f9b2468ull);
    const size_t take = std::min<size_t>(OracleTests, tests);
    for (size_t i = 0; i < take; ++i)
        std::swap(sample[i], sample[i + rng.range(tests - i)]);

    uint64_t failed = 0, checked = 0, screened = 0;
    for (size_t i = 0; i < take; ++i) {
        for (uint8_t m = 0; m < std::size(Models); ++m) {
            harness::Query q =
                queryFor(s, {sample[i], m, Operational, -1});
            q.options.prescreen = false;
            const harness::Decision d = harness::decide(q, nullptr);
            for (uint8_t e = 0; e < std::size(Engines); ++e) {
                const Verdict &got =
                    v[size_t(s.fresh[freshSlot(sample[i], m, e)])];
                ++checked;
                screened +=
                    got.prescreened != harness::PrescreenKind::None;
                failed += !d.complete || got.allowed != d.allowed;
            }
        }
    }
    char line[200];
    std::snprintf(line, sizeof(line),
                  "operational oracle (prescreen off): %zu tests, %llu "
                  "issued verdicts, %llu of them screened, %llu disagree",
                  take, static_cast<unsigned long long>(checked),
                  static_cast<unsigned long long>(screened),
                  static_cast<unsigned long long>(failed));
    r.note(line);
    return failed;
}

/** Issue calls [0, end) through @p cache, one decide() each; with
 *  @p spans, each call inside a span. */
std::vector<Verdict>
decidePrefix(const Stream &s, size_t end, harness::DecisionCache &cache,
             LayerSpans *spans)
{
    std::vector<Verdict> v(s.calls.size());
    for (size_t i = 0; i < end; ++i) {
        const harness::Query q = queryFor(s, s.calls[i]);
        auto call = [&] { return harness::decide(q, &cache); };
        v[i] = verdictOf(spans ? spans->time("harness.decide", call)
                               : call());
    }
    return v;
}

Report
timedRun(const Args &args)
{
    Report r;
    Stream stream;
    std::vector<double> setups;
    for (int i = 0; i < SetupRepeats; ++i) {
        const auto start = Clock::now();
        generateTests(stream, args.seed,
                      uint64_t(args.seconds * TestsPerSecond) + 64);
        planCalls(stream, args.seed);
        setups.push_back(secondsSince(start));
    }

    harness::DecisionCache cache;
    std::vector<Verdict> verdicts(stream.calls.size());
    std::vector<double> latencies;
    latencies.reserve(stream.calls.size());
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    size_t issued = 0;
    while (issued < stream.calls.size()
           && secondsSince(start) < args.seconds) {
        const harness::Query q = queryFor(stream, stream.calls[issued]);
        const auto t0 = Clock::now();
        const harness::Decision d = harness::decide(q, &cache);
        latencies.push_back(secondsSince(t0) * 1e6);
        verdicts[issued++] = verdictOf(d);
    }
    const double wall = secondsSince(start);
    const double cpu = cpuSeconds() - cpu0;

    r.attempted = issued;
    r.failed = countFailures(stream, verdicts);
    if (issued == stream.calls.size()) {
        r.note("stream exhausted before the clock: raise TestsPerSecond");
        r.correct = false;
    }
    const auto stats = cache.stats();
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%zu decide() calls over %u tests (%zu latency "
                  "samples), cache %llu hits / %llu misses",
                  issued, issued ? stream.calls[issued - 1].test + 1 : 0,
                  latencies.size(),
                  static_cast<unsigned long long>(stats.hits),
                  static_cast<unsigned long long>(stats.misses));
    r.note(line);

    r.add("decisions_per_s", share(double(issued), wall), "1/s");
    r.add("latency_p50_us", percentile(latencies, 50), "us");
    r.add("latency_p99_us", percentile(latencies, 99), "us");
    r.add("cpu_us_per_decision", share(cpu * 1e6, double(issued)), "us");
    r.add("peak_rss_mb", peakRssMb(), "MB");
    r.add("setup_s", median(setups), "s");
    r.failed += oracleFailures(stream, verdicts, issued, args.seed, r);
    return r;
}

/**
 * Replay the layers one decide() spans, call by call, on the traced
 * pass's inputs: the test fingerprint and cache lookup every call
 * makes, and for each cache miss the prescreen and then whichever
 * engine the pass actually ran, with the prescreen off.
 */
void
replayLayers(const Stream &s, size_t end, const std::vector<Verdict> &v,
             harness::DecisionCache &cache, LayerSpans &spans,
             uint64_t &statesVisited)
{
    static const char *const EngineLayer[] = {"axiomatic", "cat",
                                              "operational"};
    // (test, engine) pairs whose SC query was decided earlier, so an
    // SC-delegated query found it in the cache.
    std::set<std::pair<uint32_t, uint8_t>> scDecided;
    for (size_t i = 0; i < end; ++i) {
        const Call &c = s.calls[i];
        const harness::Query q = queryFor(s, c);
        const model::Engine engine = harness::resolveEngine(q);
        spans.time("litmus.fingerprint",
                   [&] { return litmus::fingerprint(*q.test); });
        const uint64_t key = harness::queryKey(q, engine);
        spans.time("harness.cache", [&] { return cache.lookup(key); });
        if (v[i].cacheHit)
            continue;
        spans.time("analysis.prescreen", [&] {
            return analysis::prescreen(*q.test, q.model);
        });
        std::optional<ModelKind> ran;
        if (v[i].prescreened == harness::PrescreenKind::None)
            ran = q.model;
        else if (v[i].prescreened == harness::PrescreenKind::ScDelegate
                 && !scDecided.count({c.test, c.engine}))
            ran = ModelKind::SC;
        if (q.model == ModelKind::SC)
            scDecided.insert({c.test, c.engine});
        if (!ran)
            continue;
        harness::Query bare = q;
        bare.model = *ran;
        bare.options.prescreen = false;
        const harness::Decision d = spans.time(EngineLayer[c.engine], [&] {
            return harness::decide(bare, nullptr);
        });
        if (c.engine == Operational)
            statesVisited += d.statesVisited;
    }
}

Report
tracedRun(const Args &args)
{
    Report r;
    std::map<std::string, double> out = emptyLayerValues();
    LayerSpans spans;

    Stream stream;
    spans.time("litmus.generate", [&] {
        generateTests(stream, args.seed, TracedTests);
    });
    planCalls(stream, args.seed);
    const size_t end = size_t(
        stream.fresh[TracedTests * CallsPerTest - 1] + 1);

    // Untraced and traced passes over the same prefix, alternated so
    // drift on a shared machine hits both sides; each gets a fresh
    // cache.  The traced side wraps every decide() in a span.
    double untracedWall = 0.0, tracedWall = 0.0, tracedCpu = 0.0;
    TracedPass traced;
    std::vector<Verdict> verdicts;
    harness::DecisionCache tracedCache;
    for (int round = 0; round < 2; ++round) {
        {
            harness::DecisionCache cache;
            const auto start = Clock::now();
            decidePrefix(stream, end, cache, nullptr);
            untracedWall += secondsSince(start);
        }
        harness::DecisionCache cache;
        harness::DecisionCache &use = round == 0 ? tracedCache : cache;
        const obs::MetricSnapshot before = obs::metrics().snapshot();
        const double cpu0 = cpuSeconds();
        const auto start = Clock::now();
        std::vector<Verdict> v = decidePrefix(stream, end, use, &spans);
        tracedWall += secondsSince(start);
        tracedCpu += cpuSeconds() - cpu0;
        if (round == 0) {
            traced.delta = obs::metrics().snapshot().delta(before);
            verdicts = std::move(v);
        }
    }
    r.attempted = end;
    r.failed = countFailures(stream, verdicts)
        + oracleFailures(stream, verdicts, end, args.seed, r);
    // Before the replay, whose lookups count against the same cache.
    const auto stats = tracedCache.stats();

    uint64_t statesVisited = 0;
    replayLayers(stream, end, verdicts, tracedCache, spans, statesVisited);
    // Every inline cat decide() compiles its model's plan afresh.
    for (const cat::CatModel *m : cat::builtinCatModels())
        for (int i = 0; i < 5; ++i)
            spans.time("cat.compile",
                       [&] { return cat::compileCatModel(*m); });

    // Per-pass figures: the replay covers one traced pass.
    traced.prescreenCalls = spans.calls("analysis.prescreen");
    traced.wall = tracedWall / 2;
    traced.cpu = tracedCpu / 2;
    traced.overhead = share(tracedWall, untracedWall);
    out["litmus.generate_s"] = spans.seconds("litmus.generate");
    out["litmus.fingerprint_s"] = spans.seconds("litmus.fingerprint");
    out["litmus.self_s"] = out["litmus.fingerprint_s"];
    out["harness.cache.lookup_us"] = spans.meanUs("harness.cache");
    out["harness.cache.hits"] = double(stats.hits);
    out["harness.cache.hit_rate"] =
        share(double(stats.hits), double(stats.hits + stats.misses));
    out["harness.self_s"] = spans.seconds("harness.cache");
    out["analysis.self_s"] = spans.seconds("analysis.prescreen");
    out["analysis.prescreen_us"] = spans.meanUs("analysis.prescreen");
    out["axiomatic.enumerate_s"] = spans.seconds("axiomatic");
    out["cat.self_s"] = spans.seconds("cat");
    out["cat.decide_us"] = spans.meanUs("cat");
    out["cat.compile_us"] = spans.meanUs("cat.compile");
    out["cat.compiles"] = double(traced.delta.counter("cat.compiles"));
    out["operational.self_s"] = spans.seconds("operational");
    out["operational.explore_us"] = spans.meanUs("operational");
    out["operational.states_visited"] = double(statesVisited);
    addPassLayers(out, traced,
                  {"litmus.self_s", "harness.self_s", "analysis.self_s",
                   "axiomatic.enumerate_s", "cat.self_s",
                   "operational.self_s"});

    char line[160];
    std::snprintf(line, sizeof(line),
                  "traced prefix: %u tests, %zu decide() calls, %.3f s "
                  "traced wall, %.3f s attributed",
                  TracedTests, end, traced.wall,
                  traced.cpu - out["obs.unattributed_s"]);
    r.note(line);
    addLayerMetrics(r, out);
    return r;
}

} // namespace

Report
runQuery(const Args &args)
{
    return args.trace ? tracedRun(args) : timedRun(args);
}

} // namespace pipebench
