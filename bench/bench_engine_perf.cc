/**
 * @file
 * Engine micro-benchmarks (google-benchmark): throughput of the
 * axiomatic checker, the operational explorer and the cycle simulator
 * as program size grows.
 */

#include <benchmark/benchmark.h>

#include "axiomatic/checker.hh"
#include "litmus/suite.hh"
#include "operational/explorer.hh"
#include "operational/gam_machine.hh"
#include "sim/core.hh"
#include "sim/trace_gen.hh"
#include "workload/workloads.hh"

namespace
{

using namespace gam;

void
BM_AxiomaticChecker(benchmark::State &state)
{
    const auto &tests = litmus::paperSuite();
    const litmus::LitmusTest &test =
        tests[size_t(state.range(0)) % tests.size()];
    for (auto _ : state) {
        axiomatic::Checker checker(test, model::ModelKind::GAM);
        benchmark::DoNotOptimize(checker.enumerate().size());
    }
    state.SetLabel(test.name);
}
BENCHMARK(BM_AxiomaticChecker)->DenseRange(0, 9);

// Scale with the number of threads -- dekker (2) .. iriw (4) -- plus
// the two largest Figure-14 state spaces (corr: 14a, rsw: 14c).
const char *kExplorerTests[] = {"corr", "dekker", "wrc_dep", "iriw",
                                "rsw"};

void
BM_OperationalExplorer(benchmark::State &state)
{
    const litmus::LitmusTest &test =
        litmus::testByName(kExplorerTests[size_t(state.range(0))]);
    uint64_t states = 0;
    for (auto _ : state) {
        operational::GamOptions opts;
        auto result = operational::exploreAll(
            operational::GamMachine(test, opts));
        states = result.statesVisited;
        benchmark::DoNotOptimize(result.outcomes.size());
    }
    state.SetLabel(test.name + (" states=" + std::to_string(states)));
}
BENCHMARK(BM_OperationalExplorer)->DenseRange(0, 4);

/**
 * The explorer memoising full string encodings: the baseline the
 * interned explorer (BM_OperationalExplorer) is compared against.
 */
void
BM_ExplorerStringSetBaseline(benchmark::State &state)
{
    const litmus::LitmusTest &test =
        litmus::testByName(kExplorerTests[size_t(state.range(0))]);
    for (auto _ : state) {
        auto result = operational::exploreAllStringSet(
            operational::GamMachine(test, {}));
        benchmark::DoNotOptimize(result.outcomes.size());
    }
    state.SetLabel(test.name);
}
BENCHMARK(BM_ExplorerStringSetBaseline)->DenseRange(0, 4);

void
BM_CycleSimulator(benchmark::State &state)
{
    const auto &spec = workload::workloadByName("histogram");
    auto built = spec.build();
    sim::DynTrace trace =
        sim::generateTrace(built.program, built.mem, 50000);
    for (auto _ : state) {
        sim::Core core(trace, model::ModelKind::GAM);
        auto stats = core.run();
        benchmark::DoNotOptimize(stats.cycles);
    }
    state.SetItemsProcessed(int64_t(state.iterations())
                            * int64_t(trace.uops.size()));
}
BENCHMARK(BM_CycleSimulator);

void
BM_TraceGeneration(benchmark::State &state)
{
    const auto &spec = workload::workloadByName("stream_triad");
    auto built = spec.build();
    for (auto _ : state) {
        auto trace = sim::generateTrace(built.program, built.mem,
                                        spec.maxUops);
        benchmark::DoNotOptimize(trace.uops.size());
    }
}
BENCHMARK(BM_TraceGeneration);

} // namespace

BENCHMARK_MAIN();
