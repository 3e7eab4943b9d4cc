/**
 * @file
 * Compiled cat engine vs. hand-coded axiomatic checker CPU time.
 *
 * Decides the 3-thread suite (every built-in litmus test with at most
 * three threads) under every cat-supported model (SC, TSO, GAM0, GAM)
 * three ways -- the hand-coded axiomatic checker, the cat engine
 * running the compiled plan (cat/compile.hh), and the cat engine
 * interpreting the model through the generic evaluator -- with caching
 * disabled, and reports per-model times plus the two ratios that
 * matter.  Each engine's pass over one model is timed in thread CPU
 * time, as the median of seven repetitions interleaved across the
 * three engines.  A whole run takes ~20 ms, so a single wall-clock
 * pass per engine -- what the gate once read -- counted whatever the
 * host scheduled in between: one preemption could fail the gate.
 *
 *   compiled/axiomatic    the cost of the model being *data*.  The
 *                         compiled plan maintains the same closed
 *                         reachability bitsets as the hand-written
 *                         BuiltinAxiomFilter, so this is gated at 2x:
 *                         compiling the model must actually close the
 *                         interpreter gap, not just narrow it.
 *   compiled/interpreted  what the compiler buys over re-evaluating
 *                         relation algebra per candidate (reported,
 *                         not gated: it grows with test size).
 *
 * Also emits BENCH_cat_compile.json (test count, CPU seconds,
 * candidates, ratios) in the gam-metrics-v1 snapshot schema for CI
 * artifact upload and trend tracking; the gate rides along as the
 * gauge bench.cat_compile.gate_compiled_vs_axiomatic_max.
 */

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <vector>

#include "harness/decision.hh"
#include "litmus/suite.hh"
#include "model/engine.hh"
#include "obs/registry.hh"

namespace
{

using namespace gam;

/** CPU time of the calling thread: the passes are serial, and time
 *  the thread spends descheduled is not the engine's. */
double
cpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** CPU seconds to decide every test under @p model with @p engine;
 *  cache disabled. */
double
enginePass(const std::vector<litmus::LitmusTest> &tests,
           model::ModelKind model, harness::EngineSelect engine,
           bool cat_compile, uint64_t *candidates)
{
    const double start = cpuSeconds();
    for (const auto &test : tests) {
        harness::Query query;
        query.test = &test;
        query.model = model;
        query.engine = engine;
        query.options.catCompile = cat_compile;
        const harness::Decision d = harness::decide(query, nullptr);
        if (candidates)
            *candidates += d.statesVisited;
    }
    return cpuSeconds() - start;
}

/** Timed repetitions of each engine's pass over one model. */
constexpr int Repeats = 7;

double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

} // namespace

int
main()
{
    std::vector<litmus::LitmusTest> tests;
    for (const litmus::LitmusTest &test : litmus::allTests())
        if (test.threads.size() <= 3)
            tests.push_back(test);
    const std::vector<model::ModelKind> models = {
        model::ModelKind::SC, model::ModelKind::TSO,
        model::ModelKind::GAM0, model::ModelKind::GAM,
    };

    std::printf("cat-engine benchmark: %zu 3-thread tests x %zu "
                "models, cache disabled, median CPU time of %d runs "
                "per pass\n\n",
                tests.size(), models.size(), Repeats);
    std::printf("%-6s %12s %12s %12s %9s %9s %12s\n", "model",
                "axiomatic", "compiled", "interpreted", "cmp/ax",
                "cmp/int", "candidates");

    double ax_total = 0.0, compiled_total = 0.0, interp_total = 0.0;
    uint64_t candidates_total = 0;
    for (model::ModelKind model : models) {
        uint64_t candidates = 0;
        // Interleaved, so a slow stretch of the host slows all three
        // engines' samples alike rather than one engine's pass.
        std::vector<double> ax_runs, compiled_runs, interp_runs;
        for (int rep = 0; rep < Repeats; ++rep) {
            ax_runs.push_back(enginePass(
                tests, model, harness::EngineSelect::Axiomatic, true,
                nullptr));
            compiled_runs.push_back(enginePass(
                tests, model, harness::EngineSelect::Cat, true,
                rep == 0 ? &candidates : nullptr));
            interp_runs.push_back(enginePass(
                tests, model, harness::EngineSelect::Cat, false,
                nullptr));
        }
        const double ax = median(ax_runs);
        const double compiled = median(compiled_runs);
        const double interp = median(interp_runs);
        ax_total += ax;
        compiled_total += compiled;
        interp_total += interp;
        candidates_total += candidates;
        std::printf("%-6s %11.3fs %11.3fs %11.3fs %8.2fx %8.2fx "
                    "%12llu\n",
                    model::modelName(model).c_str(), ax, compiled,
                    interp, ax > 0 ? compiled / ax : 0.0,
                    interp > 0 ? compiled / interp : 0.0,
                    static_cast<unsigned long long>(candidates));
    }

    const double vs_ax =
        ax_total > 0 ? compiled_total / ax_total : 0.0;
    const double vs_interp =
        interp_total > 0 ? compiled_total / interp_total : 0.0;
    std::printf("\ntotal: axiomatic %.3fs, compiled cat %.3fs, "
                "interpreted cat %.3fs\n"
                "the compiled plan costs %.2fx the hand-coded checker "
                "and %.2fx the interpreter\n",
                ax_total, compiled_total, interp_total, vs_ax,
                vs_interp);

    {
        obs::MetricRegistry reg;
        reg.counter("bench.cat_compile.tests").inc(tests.size());
        reg.counter("bench.cat_compile.models").inc(models.size());
        reg.counter("bench.cat_compile.candidates")
            .inc(candidates_total);
        reg.gauge("bench.cat_compile.axiomatic_seconds").set(ax_total);
        reg.gauge("bench.cat_compile.compiled_cat_seconds")
            .set(compiled_total);
        reg.gauge("bench.cat_compile.interpreted_cat_seconds")
            .set(interp_total);
        reg.gauge("bench.cat_compile.compiled_vs_axiomatic").set(vs_ax);
        reg.gauge("bench.cat_compile.compiled_vs_interpreted")
            .set(vs_interp);
        reg.gauge("bench.cat_compile.gate_compiled_vs_axiomatic_max")
            .set(2.0);
        std::ofstream json("BENCH_cat_compile.json", std::ios::trunc);
        json << reg.snapshot().toJson();
    }

    // The gate: the compiled plan does the same incremental bitset
    // work as the hand-written filter, so it must land within 2x of
    // it (per-epoch plan setup is the only extra cost).  A regression
    // here means a pass stopped fusing.
    if (vs_ax > 2.0) {
        std::printf("FAIL: compiled-cat/axiomatic ratio %.2fx exceeds "
                    "2x\n",
                    vs_ax);
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}
