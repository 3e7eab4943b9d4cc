/**
 * Tests for the observability layer: the metric registry (counters,
 * gauges, log-scale histograms), snapshot exposition and parsing
 * (JSON golden + round-trip), the trace collector
 * (Chrome JSON round-trip with span nesting, ring overflow, a failed
 * write, the campaign's prepare span), and the metric invariant of
 * the decide() and decideBatch() pipelines.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/driver.hh"
#include "harness/decision.hh"
#include "litmus/suite.hh"
#include "model/engine.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace gam::obs
{
namespace
{

// ----------------------------------------------------------- registry

TEST(Registry, CountersGaugesAndHistogramsAreNamedSingletons)
{
    MetricRegistry reg;
    Counter &c = reg.counter("a.b");
    c.inc();
    c.inc(4);
    EXPECT_EQ(reg.counter("a.b").value(), 5u);
    EXPECT_EQ(&reg.counter("a.b"), &c);

    reg.gauge("g").set(2.5);
    EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 2.5);

    Histogram &h = reg.histogram("h");
    h.sample(10);
    EXPECT_EQ(reg.histogram("h").count(), 1u);

    // reset() zeroes values but keeps every reference valid.
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
    c.inc();
    EXPECT_EQ(reg.counter("a.b").value(), 1u);
}

TEST(Registry, ReRegisteringUnderAnotherKindPanics)
{
    MetricRegistry reg;
    reg.counter("x");
    EXPECT_DEATH(reg.gauge("x"), "registered");
}

TEST(Registry, HistogramBucketsAreLog2)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(7), 3u);
    EXPECT_EQ(Histogram::bucketOf(8), 4u);
    EXPECT_EQ(Histogram::bucketOf(~0ull), 64u);

    Histogram h;
    h.sample(0);
    h.sample(5);
    h.sample(6);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 11u);
    EXPECT_EQ(h.max(), 6u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(3), 2u);
    EXPECT_EQ(h.bucketCount(2), 0u);
}

TEST(Registry, ConcurrentUpdatesAreRaceFreeAndExact)
{
    // Hammer one counter, gauge and histogram from many threads; run
    // under TSan in CI.  Counter totals and histogram count/sum are
    // exact because every update is a single atomic RMW.
    MetricRegistry reg;
    constexpr int Threads = 8;
    constexpr uint64_t PerThread = 20000;

    std::vector<std::thread> workers;
    for (int t = 0; t < Threads; ++t) {
        workers.emplace_back([&reg, t] {
            Counter &c = reg.counter("hammer.count");
            Histogram &h = reg.histogram("hammer.hist");
            Gauge &g = reg.gauge("hammer.gauge");
            for (uint64_t i = 0; i < PerThread; ++i) {
                c.inc();
                h.sample(i & 0xff);
                g.set(double(t));
                if ((i & 0x3ff) == 0)
                    (void)reg.snapshot();
            }
        });
    }
    for (auto &w : workers)
        w.join();

    const MetricSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("hammer.count"), Threads * PerThread);
    EXPECT_EQ(snap.histograms.at("hammer.hist").count,
              Threads * PerThread);
    EXPECT_EQ(snap.histograms.at("hammer.hist").max, 0xffu);
    const double g = snap.gauge("hammer.gauge");
    EXPECT_GE(g, 0.0);
    EXPECT_LT(g, double(Threads));
}

TEST(Registry, MetricSegmentFoldsArbitraryText)
{
    EXPECT_EQ(metricSegment("Alpha*"), "alpha_");
    EXPECT_EQ(metricSegment("GAM0"), "gam0");
    EXPECT_EQ(metricSegment("per-loc SC"), "per_loc_sc");
    EXPECT_EQ(metricSegment("a.b"), "a.b");
}

// ---------------------------------------------------------- snapshots

MetricSnapshot
sampleSnapshot()
{
    MetricRegistry reg;
    reg.counter("a.b").inc(3);
    reg.gauge("g.rate").set(0.5);
    reg.histogram("h.us").sample(0);
    reg.histogram("h.us").sample(5);
    reg.histogram("h.us").sample(6);
    return reg.snapshot();
}

TEST(Snapshot, JsonGolden)
{
    // The v1 schema is an artifact format (campaign_metrics.json,
    // BENCH_*.json); pin it byte-for-byte.
    EXPECT_EQ(sampleSnapshot().toJson(),
              "{\n"
              "  \"schema\": \"gam-metrics-v1\",\n"
              "  \"counters\": {\n"
              "    \"a.b\": 3\n"
              "  },\n"
              "  \"gauges\": {\n"
              "    \"g.rate\": 0.5\n"
              "  },\n"
              "  \"histograms\": {\n"
              "    \"h.us\": {\"count\": 3, \"sum\": 11, \"max\": 6, "
              "\"buckets\": [[0, 1], [3, 2]]}\n"
              "  }\n"
              "}\n");
}

TEST(Snapshot, JsonRoundTripsExactly)
{
    const MetricSnapshot snap = sampleSnapshot();
    const auto parsed = MetricSnapshot::fromJson(snap.toJson());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(*parsed == snap);

    // Doubles survive exactly (shortest round-trip rendering).
    MetricRegistry reg;
    reg.gauge("pi").set(3.141592653589793);
    reg.gauge("tiny").set(1e-300);
    const MetricSnapshot doubles = reg.snapshot();
    const auto parsed2 = MetricSnapshot::fromJson(doubles.toJson());
    ASSERT_TRUE(parsed2.has_value());
    EXPECT_TRUE(*parsed2 == doubles);
}

TEST(Snapshot, FromJsonRejectsForeignDocuments)
{
    EXPECT_FALSE(MetricSnapshot::fromJson("").has_value());
    EXPECT_FALSE(MetricSnapshot::fromJson("{}").has_value());
    EXPECT_FALSE(
        MetricSnapshot::fromJson("{\"schema\": \"gam-metrics-v2\"}")
            .has_value());
    const std::string good = sampleSnapshot().toJson();
    EXPECT_FALSE(MetricSnapshot::fromJson(good + "x").has_value());
}

TEST(Snapshot, DeltaSubtractsCountersAndKeepsGauges)
{
    MetricRegistry reg;
    reg.counter("c").inc(10);
    reg.gauge("g").set(1.0);
    reg.histogram("h").sample(4);
    const MetricSnapshot before = reg.snapshot();

    reg.counter("c").inc(5);
    reg.gauge("g").set(2.0);
    reg.histogram("h").sample(4);
    reg.histogram("h").sample(100);
    reg.counter("fresh").inc(2);
    const MetricSnapshot after = reg.snapshot();

    const MetricSnapshot d = after.delta(before);
    EXPECT_EQ(d.counter("c"), 5u);
    EXPECT_EQ(d.counter("fresh"), 2u);
    EXPECT_DOUBLE_EQ(d.gauge("g"), 2.0);
    EXPECT_EQ(d.histograms.at("h").count, 2u);
    EXPECT_EQ(d.histograms.at("h").sum, 104u);
    EXPECT_EQ(d.histograms.at("h").max, 100u);

    // A reset in between must saturate at zero, not wrap.
    reg.reset();
    const MetricSnapshot wrapped = reg.snapshot().delta(before);
    EXPECT_EQ(wrapped.counter("c"), 0u);
}

// ------------------------------------------------------------ tracing

/** One parsed Chrome trace event. */
struct ParsedEvent
{
    std::string name;
    unsigned tid = 0;
    double ts = 0.0;
    double dur = 0.0;
    uint64_t id = 0;
};

/**
 * Parse exportChromeJson() output: one "ph":"X" complete event per
 * line, exactly as chrome://tracing consumes it.
 */
std::vector<ParsedEvent>
parseChromeTrace(const std::string &json)
{
    EXPECT_NE(json.find("{\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    std::vector<ParsedEvent> events;
    size_t pos = 0;
    while ((pos = json.find("{\"name\": \"", pos)) != std::string::npos) {
        char name[64] = {};
        ParsedEvent e;
        unsigned long long id = 0;
        const int matched = std::sscanf(
            json.c_str() + pos,
            "{\"name\": \"%63[^\"]\", \"cat\": \"gam\", "
            "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %lf, "
            "\"dur\": %lf, \"args\": {\"id\": %llu}}",
            name, &e.tid, &e.ts, &e.dur, &id);
        EXPECT_EQ(matched, 5) << json.substr(pos, 120);
        e.name = name;
        e.id = id;
        events.push_back(e);
        ++pos;
    }
    return events;
}

TEST(Trace, ChromeJsonRoundTripsWithProperNesting)
{
    TraceCollector &collector = TraceCollector::instance();
    collector.clear();
    collector.enable();
    {
        TraceSpan outer("outer");
        EXPECT_GT(outer.id(), 0u);
        {
            TraceSpan inner("inner");
            EXPECT_GT(inner.id(), outer.id());
        }
    }
    std::thread([] {
        GAM_TRACE_SCOPE("worker");
    }).join();
    collector.disable();

    const auto events = parseChromeTrace(collector.exportChromeJson());
    ASSERT_EQ(events.size(), 3u);

    const ParsedEvent *outer = nullptr, *inner = nullptr,
                      *worker = nullptr;
    for (const auto &e : events) {
        if (e.name == "outer")
            outer = &e;
        else if (e.name == "inner")
            inner = &e;
        else if (e.name == "worker")
            worker = &e;
    }
    ASSERT_TRUE(outer && inner && worker);

    // The inner span nests inside the outer one on the same thread
    // (ts/dur are microseconds rounded to 3 decimals, so allow the
    // rounding step).
    EXPECT_EQ(inner->tid, outer->tid);
    EXPECT_NE(worker->tid, outer->tid);
    const double eps = 0.002;
    EXPECT_LE(outer->ts, inner->ts + eps);
    EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur + eps);
    // Distinct ids, allocated in construction order.
    EXPECT_LT(outer->id, inner->id);

    collector.clear();
    EXPECT_EQ(collector.retainedEvents(), 0u);
}

TEST(Trace, SpansAreInertWhileDisabled)
{
    TraceCollector &collector = TraceCollector::instance();
    collector.clear();
    ASSERT_FALSE(collector.enabled());
    {
        TraceSpan span("ghost");
        EXPECT_EQ(span.id(), 0u);
    }
    EXPECT_EQ(collector.retainedEvents(), 0u);
}

TEST(Trace, RingOverflowDropsOldestAndCounts)
{
    TraceCollector &collector = TraceCollector::instance();
    collector.clear();
    collector.enable();
    constexpr uint64_t Capacity = 1 << 14;
    constexpr uint64_t Written = Capacity + 100;
    // A fresh thread gets its own ring; overflow only drops there.
    std::thread([] {
        for (uint64_t i = 0; i < Written; ++i)
            GAM_TRACE_SCOPE("spin");
    }).join();
    collector.disable();

    EXPECT_EQ(collector.droppedEvents(), Written - Capacity);
    EXPECT_EQ(collector.retainedEvents(), Capacity);
    collector.clear();
    EXPECT_EQ(collector.droppedEvents(), 0u);
}

size_t
openDescriptors()
{
    namespace fs = std::filesystem;
    return size_t(std::distance(fs::directory_iterator("/proc/self/fd"),
                                fs::directory_iterator()));
}

TEST(Trace, FailedWriteClosesTheFile)
{
    // A document larger than the stdio buffer makes fwrite() itself
    // come up short on /dev/full; the file must still be closed.
    TraceCollector &collector = TraceCollector::instance();
    collector.clear();
    collector.enable();
    for (int i = 0; i < 500; ++i)
        GAM_TRACE_SCOPE("span");
    collector.disable();
    ASSERT_GT(collector.exportChromeJson().size(), size_t(BUFSIZ));

    const size_t before = openDescriptors();
    EXPECT_FALSE(collector.writeChromeJson("/dev/full"));
    EXPECT_EQ(openDescriptors(), before);
    collector.clear();
}

TEST(Trace, CampaignPrepareIsOneSpanBeforeTheWorkers)
{
    // The campaign's serial prepare step (enumerate, dedupe) is one
    // span inside campaign.run on the coordinating thread, closed
    // before any worker starts deciding.
    TraceCollector &collector = TraceCollector::instance();
    collector.clear();
    collector.enable();
    campaign::CampaignOptions options;
    options.enumerate.maxLen = 3;
    options.threads = 2;
    const campaign::CampaignResult result =
        campaign::runCampaign(options, nullptr);
    collector.disable();
    ASSERT_GT(result.units, 0u);

    const auto events = parseChromeTrace(collector.exportChromeJson());
    collector.clear();
    const ParsedEvent *run = nullptr, *prepare = nullptr;
    size_t runs = 0, prepares = 0;
    double first_worker = -1.0;
    for (const ParsedEvent &e : events) {
        if (e.name == "campaign.run") {
            run = &e;
            ++runs;
        } else if (e.name == "campaign.prepare") {
            prepare = &e;
            ++prepares;
        } else if (e.name == "campaign.worker"
                   && (first_worker < 0.0 || e.ts < first_worker)) {
            first_worker = e.ts;
        }
    }
    ASSERT_EQ(runs, 1u);
    ASSERT_EQ(prepares, 1u);
    ASSERT_GE(first_worker, 0.0);
    EXPECT_EQ(prepare->tid, run->tid);
    const double eps = 0.002;
    EXPECT_LE(run->ts, prepare->ts + eps);
    EXPECT_LE(prepare->ts + prepare->dur, run->ts + run->dur + eps);
    EXPECT_LE(prepare->ts + prepare->dur, first_worker + eps);
}

// ------------------------------------------- the decide() instrument

/** The terminal counters: every request ends at exactly one. */
uint64_t
terminals(const MetricSnapshot &d)
{
    return d.counter("decide.cache.hit") + d.counter("decide.store.hit")
        + d.counter("decide.prescreen.value_cover")
        + d.counter("decide.prescreen.sc_delegate")
        + d.counter("decide.engine.axiomatic")
        + d.counter("decide.engine.operational")
        + d.counter("decide.engine.cat");
}

TEST(DecideMetrics, RequestsEqualTerminalsAndSpansStamp)
{
    // Every decide() ends in exactly one of: cache hit, store hit,
    // prescreen verdict, or an engine run.  The registry must agree.
    const MetricSnapshot before = metrics().snapshot();

    harness::DecisionCache cache(1 << 10);
    const char *names[] = {"mp", "dekker", "lb", "iriw"};
    for (const char *name : names) {
        const litmus::LitmusTest &test = litmus::testByName(name);
        for (int round = 0; round < 2; ++round) {
            harness::Query q;
            q.test = &test;
            q.model = model::ModelKind::GAM;
            q.engine = harness::EngineSelect::Axiomatic;
            const harness::Decision d = harness::decide(q, &cache);
            // Tracing is disabled here, so no span id is stamped.
            EXPECT_EQ(d.traceSpanId, 0u);
        }
    }

    const MetricSnapshot d = metrics().snapshot().delta(before);
    EXPECT_GT(d.counter("decide.requests"), 0u);
    EXPECT_GT(d.counter("decide.cache.hit"), 0u);
    EXPECT_EQ(d.counter("decide.requests"), terminals(d));
    EXPECT_EQ(d.histograms.at("decide.wall_us").count,
              d.counter("decide.requests"));

    // With tracing enabled every decision carries its span id.
    TraceCollector::instance().clear();
    TraceCollector::instance().enable();
    harness::Query q;
    const litmus::LitmusTest &test = litmus::testByName("mp");
    q.test = &test;
    q.model = model::ModelKind::GAM;
    q.engine = harness::EngineSelect::Axiomatic;
    const harness::Decision traced = harness::decide(q, nullptr);
    TraceCollector::instance().disable();
    EXPECT_GT(traced.traceSpanId, 0u);

    // The span actually landed in the exported trace.
    bool found = false;
    for (const auto &e :
         parseChromeTrace(TraceCollector::instance().exportChromeJson())) {
        if (e.name == "decide" && e.id == traced.traceSpanId)
            found = true;
    }
    EXPECT_TRUE(found);
    TraceCollector::instance().clear();
}

/** An in-memory DecisionBackend keeping verdict-only records, as the
 *  campaign store does. */
class MapBackend final : public harness::DecisionBackend
{
  public:
    std::optional<harness::Decision> load(uint64_t key) override
    {
        auto it = records.find(key);
        if (it == records.end())
            return std::nullopt;
        harness::Decision d;
        d.allowed = it->second;
        return d;
    }

    void store(uint64_t key, const harness::Query &,
               const harness::Decision &decision) override
    {
        records.emplace(key, decision.allowed);
    }

    std::map<uint64_t, bool> records;
};

TEST(DecideMetrics, BatchedRequestsEqualTerminals)
{
    // decideBatch() pends axiomatic runs and SC delegations onto fused
    // walks; every request -- each delegation's inner SC request
    // included -- must still end at exactly one terminal counter and
    // one decide.wall_us sample, whichever source serves it.
    const std::vector<litmus::LitmusTest> tests = litmus::allTests();
    std::vector<harness::Query> queries, scQueries;
    for (const litmus::LitmusTest &test : tests) {
        for (model::ModelKind m :
             {model::ModelKind::SC, model::ModelKind::TSO,
              model::ModelKind::GAM0, model::ModelKind::GAM}) {
            for (harness::EngineSelect e :
                 {harness::EngineSelect::Axiomatic,
                  harness::EngineSelect::Cat}) {
                harness::Query q;
                q.test = &test;
                q.model = m;
                q.engine = e;
                queries.push_back(q);
                if (m == model::ModelKind::SC)
                    scQueries.push_back(q);
            }
        }
    }
    ASSERT_EQ(queries.size(), 232u);

    auto run = [&](harness::DecisionCache *cache, MapBackend *store) {
        const MetricSnapshot before = metrics().snapshot();
        harness::decideBatch(queries, cache, store);
        const MetricSnapshot d = metrics().snapshot().delta(before);
        EXPECT_EQ(d.counter("decide.requests"), terminals(d));
        EXPECT_EQ(d.histograms.at("decide.wall_us").count,
                  d.counter("decide.requests"));
        return d;
    };
    {
        // The inner SC requests hit the cache the batch's SC members
        // filled.
        harness::DecisionCache cache(1 << 12);
        MapBackend store;
        const MetricSnapshot d = run(&cache, &store);
        EXPECT_EQ(d.counter("decide.requests"), 326u);
        EXPECT_EQ(d.counter("decide.prescreen.sc_delegate"), 94u);
        EXPECT_EQ(d.counter("decide.cache.hit"), 94u);
    }
    {
        // The SC members hit the store; the inner SC requests never
        // consult it (a store hit is verdict-only, and a delegator
        // persists its exact set), so without a cache each one runs
        // its engine.
        MapBackend scOnly;
        harness::decideBatch(scQueries, nullptr, &scOnly);
        const MetricSnapshot d = run(nullptr, &scOnly);
        EXPECT_EQ(d.counter("decide.store.hit"), 58u);
    }
    {
        // Without a cache the inner SC requests run their engine too,
        // even though the batch's SC members have just stored records
        // under their keys.
        MapBackend store;
        const MetricSnapshot d = run(nullptr, &store);
        EXPECT_EQ(d.counter("decide.store.hit"), 0u);
        EXPECT_EQ(d.counter("decide.engine.axiomatic"), 112u);
        EXPECT_EQ(d.counter("decide.engine.cat"), 112u);
    }
}

} // namespace
} // namespace gam::obs
