/** Tests for the experiment harness and litmus runner. */

#include <gtest/gtest.h>

#include "harness/experiments.hh"
#include "harness/litmus_runner.hh"
#include "litmus/suite.hh"
#include "obs/registry.hh"

namespace gam::harness
{
namespace
{

using model::ModelKind;

/** decide()'s verdict on @p test under @p model by @p engine, with no
 *  cache. */
bool
allowedBy(const litmus::LitmusTest &test, ModelKind model,
          EngineSelect engine)
{
    Query query;
    query.test = &test;
    query.model = model;
    query.engine = engine;
    return decide(query, nullptr).allowed;
}

std::vector<RunResult>
syntheticResults()
{
    std::vector<RunResult> results;
    for (const auto &spec : workload::workloadSuite()) {
        for (ModelKind kind : {ModelKind::GAM, ModelKind::ARM,
                               ModelKind::GAM0, ModelKind::AlphaStar}) {
            RunResult r;
            r.workload = spec.name;
            r.model = kind;
            r.stats.cycles = 1000;
            r.stats.committedUops = 2000;
            r.stats.saLdLdKills = kind == ModelKind::GAM ? 2 : 0;
            r.stats.saLdLdStalls = kind != ModelKind::GAM0
                && kind != ModelKind::AlphaStar ? 3 : 0;
            r.stats.llForwards = kind == ModelKind::AlphaStar ? 44 : 0;
            r.stats.l1dLoadMisses = 10;
            results.push_back(r);
        }
    }
    return results;
}

TEST(HarnessFind, LooksUpRuns)
{
    auto results = syntheticResults();
    const RunResult &r = find(results, "histogram", ModelKind::ARM);
    EXPECT_EQ(r.workload, "histogram");
    EXPECT_EQ(r.model, ModelKind::ARM);
}

TEST(HarnessFind, MissingRunIsFatal)
{
    std::vector<RunResult> empty;
    EXPECT_DEATH(find(empty, "x", ModelKind::GAM), "no result");
}

TEST(HarnessFormat, Fig18ContainsAllWorkloadsAndAverage)
{
    std::string s = formatFig18(syntheticResults());
    for (const auto &spec : workload::workloadSuite())
        EXPECT_NE(s.find(spec.name), std::string::npos) << spec.name;
    EXPECT_NE(s.find("average"), std::string::npos);
    EXPECT_NE(s.find("Figure 18"), std::string::npos);
    // Equal uPCs: normalized columns print 1.0000.
    EXPECT_NE(s.find("1.0000"), std::string::npos);
}

TEST(HarnessFormat, Table2RowsAndUnits)
{
    std::string s = formatTable2(syntheticResults());
    EXPECT_NE(s.find("Kills in GAM"), std::string::npos);
    EXPECT_NE(s.find("Stalls in GAM"), std::string::npos);
    EXPECT_NE(s.find("Stalls in ARM"), std::string::npos);
    // 2 kills / 2000 uops = 1 per 1K.
    EXPECT_NE(s.find("1.000"), std::string::npos);
}

TEST(HarnessFormat, Table3Rows)
{
    std::string s = formatTable3(syntheticResults());
    EXPECT_NE(s.find("Load-load forwardings"), std::string::npos);
    EXPECT_NE(s.find("Reduced L1 load misses"), std::string::npos);
    // 44 forwards / 2000 uops = 22 per 1K, the paper's average.
    EXPECT_NE(s.find("22.00"), std::string::npos);
}

TEST(HarnessFormat, Table1MirrorsTableI)
{
    std::string s = formatTable1(sim::CoreParams{},
                                 mem::MemSystemParams{});
    EXPECT_NE(s.find("192 ROB"), std::string::npos);
    EXPECT_NE(s.find("60 RS"), std::string::npos);
    EXPECT_NE(s.find("72 LQ"), std::string::npos);
    EXPECT_NE(s.find("42 SQ"), std::string::npos);
    EXPECT_NE(s.find("12.8 GB/s"), std::string::npos);
    EXPECT_NE(s.find("l1d"), std::string::npos);
}

TEST(HarnessRun, RunOneProducesStats)
{
    // A fast run: tiny workload via a custom spec.
    workload::WorkloadSpec spec;
    spec.name = "mini";
    spec.description = "unit-test workload";
    spec.maxUops = 5000;
    spec.build = [] {
        workload::BuiltWorkload b;
        isa::ProgramBuilder pb;
        pb.li(isa::R(1), 0x1000).li(isa::R(4), 900)
          .label("loop")
          .ld(isa::R(2), isa::R(1))
          .addi(isa::R(4), isa::R(4), -1)
          .bne(isa::R(4), isa::R(0), "loop")
          .halt();
        b.program = pb.build();
        return b;
    };
    CampaignConfig config;
    config.warmupUops = 100;
    RunResult r = runOne(spec, ModelKind::GAM, config);
    EXPECT_GT(r.stats.committedUops, 2000u);
    EXPECT_GT(r.stats.upc(), 0.0);
}

TEST(LitmusRunner, AxiomaticDekkerVerdicts)
{
    const auto &t = litmus::testByName("dekker");
    EXPECT_FALSE(allowedBy(t, ModelKind::SC, EngineSelect::Axiomatic));
    EXPECT_TRUE(allowedBy(t, ModelKind::GAM, EngineSelect::Axiomatic));
}

TEST(LitmusRunner, OperationalDekkerVerdicts)
{
    const auto &t = litmus::testByName("dekker");
    EXPECT_FALSE(allowedBy(t, ModelKind::SC, EngineSelect::Operational));
    EXPECT_TRUE(allowedBy(t, ModelKind::TSO, EngineSelect::Operational));
    EXPECT_TRUE(allowedBy(t, ModelKind::GAM, EngineSelect::Operational));
}

TEST(LitmusRunner, ParallelMatrixMatchesSerial)
{
    // The batch runner writes each verdict to a pre-assigned slot, so
    // the parallel matrix must equal the serial one element-for-element
    // at any team size.
    const auto &tests = litmus::paperSuite();
    MatrixOptions options;
    options.poolThreads = 1;
    const auto serial = runPaperMatrix(tests, options);
    for (unsigned threads : {1u, 2u, 8u}) {
        options.poolThreads = threads;
        const auto parallel = runPaperMatrix(tests, options);
        ASSERT_EQ(parallel.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(parallel[i].test, serial[i].test);
            EXPECT_EQ(parallel[i].model, serial[i].model);
            EXPECT_EQ(parallel[i].engine, serial[i].engine);
            EXPECT_EQ(parallel[i].allowed, serial[i].allowed);
            EXPECT_EQ(parallel[i].expected, serial[i].expected);
        }
    }
}

TEST(LitmusRunner, PoolSizeDoesNotChangeCacheWork)
{
    // A row the prescreen proves SC-equivalent is answered by its
    // test's SC decision.  Each test's rows are one batch on one
    // worker, so that decision comes from the cache or the test's own
    // walk, never from a second worker racing the first: a pool of
    // four does the cache and engine work of a pool of one, with the
    // SC rows and without them.
    const std::vector<litmus::LitmusTest> tests = litmus::allTests();
    struct Work
    {
        DecisionCacheStats cache;
        obs::MetricSnapshot metrics;
    };
    auto run = [&](const std::vector<ModelKind> &models,
                   unsigned threads) {
        DecisionCache cache(1 << 12);
        MatrixOptions options;
        options.poolThreads = threads;
        options.cache = &cache;
        const obs::MetricSnapshot before = obs::metrics().snapshot();
        runLitmusMatrix(tests, models, options);
        return Work{cache.stats(),
                    obs::metrics().snapshot().delta(before)};
    };
    const std::vector<ModelKind> matrices[] = {
        {ModelKind::SC, ModelKind::TSO, ModelKind::GAM0, ModelKind::GAM,
         ModelKind::ARM},
        {ModelKind::TSO, ModelKind::GAM0, ModelKind::GAM},
    };
    for (const std::vector<ModelKind> &models : matrices) {
        const std::string what =
            std::to_string(models.size()) + " models";
        const Work serial = run(models, 1);
        const Work pooled = run(models, 4);
        EXPECT_GT(serial.cache.hits, 0u) << what;
        EXPECT_EQ(pooled.cache.hits, serial.cache.hits) << what;
        EXPECT_EQ(pooled.cache.misses, serial.cache.misses) << what;
        for (const char *engine : {"axiomatic", "operational", "cat"}) {
            const std::string name =
                std::string("decide.engine.") + engine;
            EXPECT_EQ(pooled.metrics.counter(name),
                      serial.metrics.counter(name))
                << name << ", " << what;
        }
    }
}

TEST(LitmusRunner, MatrixOnOneTest)
{
    std::vector<litmus::LitmusTest> one{litmus::testByName("corr")};
    MatrixOptions serial;
    serial.poolThreads = 1;
    auto verdicts = runPaperMatrix(one, serial);
    EXPECT_FALSE(verdicts.empty());
    for (const auto &v : verdicts)
        EXPECT_TRUE(v.matchesPaper())
            << v.test << " " << model::modelName(v.model);
    std::string s = formatLitmusMatrix(verdicts);
    EXPECT_NE(s.find("corr"), std::string::npos);
    EXPECT_NE(s.find("0 mismatches"), std::string::npos);
}

} // namespace
} // namespace gam::harness
