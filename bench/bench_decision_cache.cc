/**
 * @file
 * Cold vs. warm decision-cache timing.
 *
 * Runs the full litmus verdict matrix (every built-in test under every
 * model, both engines) three times against one DecisionCache: a cold
 * pass that populates it, then warm passes served from memory.  The
 * matrix is exactly the workload the litmus runner, the fuzzer's
 * shrinker and fence synthesis keep re-issuing, so the warm/cold ratio
 * here is the speedup those frontends see on repeated queries.  The
 * acceptance bar for the cache is a >= 5x warm speedup, and the warm
 * passes must run no engine at all: the decide.engine.* registry
 * counters may not move.
 */

#include <chrono>
#include <cstdio>

#include "harness/decision.hh"
#include "harness/litmus_runner.hh"
#include "litmus/suite.hh"
#include "obs/registry.hh"

namespace
{

using namespace gam;

double
seconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
matrixPass(const std::vector<litmus::LitmusTest> &tests,
           const std::vector<model::ModelKind> &models,
           harness::DecisionCache &cache)
{
    harness::MatrixOptions options;
    options.cache = &cache;
    const auto start = std::chrono::steady_clock::now();
    harness::runLitmusMatrix(tests, models, options);
    return seconds(start);
}

} // namespace

int
main()
{
    const std::vector<litmus::LitmusTest> tests = litmus::allTests();
    const std::vector<model::ModelKind> models = {
        model::ModelKind::SC,   model::ModelKind::TSO,
        model::ModelKind::GAM0, model::ModelKind::GAM,
        model::ModelKind::ARM,  model::ModelKind::AlphaStar,
        model::ModelKind::PerLocSC,
    };

    harness::DecisionCache cache;
    std::printf("decision-cache benchmark: %zu tests x %zu models, "
                "both engines\n\n", tests.size(), models.size());

    const double cold = matrixPass(tests, models, cache);
    const auto after_cold = cache.stats();
    std::printf("  cold matrix: %8.3f s  (%llu misses, %llu resident)\n",
                cold, (unsigned long long)after_cold.misses,
                (unsigned long long)cache.size());

    const obs::MetricSnapshot before_warm = obs::metrics().snapshot();
    double warm_best = -1.0;
    for (int pass = 1; pass <= 2; ++pass) {
        const double warm = matrixPass(tests, models, cache);
        if (warm_best < 0 || warm < warm_best)
            warm_best = warm;
        std::printf("  warm pass %d: %8.3f s  (%.1fx speedup)\n", pass,
                    warm, warm > 0 ? cold / warm : 0.0);
    }

    const auto stats = cache.stats();
    std::printf("\n  cache: %llu hits, %llu misses, %llu uncached\n",
                (unsigned long long)stats.hits,
                (unsigned long long)stats.misses,
                (unsigned long long)stats.uncached);

    const obs::MetricSnapshot warm_delta =
        obs::metrics().snapshot().delta(before_warm);
    uint64_t warm_engine_runs = 0;
    for (const char *engine : {"decide.engine.axiomatic",
                               "decide.engine.operational",
                               "decide.engine.cat"})
        warm_engine_runs += warm_delta.counter(engine);
    std::printf("  warm engine decisions: %llu (target: 0)\n",
                (unsigned long long)warm_engine_runs);

    const double speedup = warm_best > 0 ? cold / warm_best : 0.0;
    std::printf("  best warm speedup: %.1fx (target: >= 5x)\n", speedup);
    return speedup >= 5.0 && warm_engine_runs == 0 ? 0 : 1;
}
