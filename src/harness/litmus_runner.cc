#include "harness/litmus_runner.hh"

#include "base/logging.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"

namespace gam::harness
{

using model::Engine;
using model::ModelKind;

namespace
{

/** One (test, model, engine) job of the verdict matrix. */
struct MatrixJob
{
    const litmus::LitmusTest *test;
    ModelKind model;
    Engine engine;
    std::optional<bool> expected;
};

/**
 * Expand one (test, model) pair into jobs per the engine selection:
 * all supported engines (nullopt), the registry's pick (Auto), or a
 * specific engine when the model supports it.
 */
void
appendJobs(std::vector<MatrixJob> &jobs, const litmus::LitmusTest &test,
           ModelKind model, std::optional<bool> expected,
           const std::optional<EngineSelect> &selection)
{
    if (!selection) {
        for (Engine engine : model::allEngines) {
            if (model::supportsEngine(model, engine))
                jobs.push_back({&test, model, engine, expected});
        }
        return;
    }
    Query probe;
    probe.model = model;
    probe.engine = *selection;
    const Engine engine = resolveEngine(probe);
    if (model::supportsEngine(model, engine))
        jobs.push_back({&test, model, engine, expected});
}

LitmusVerdict
runJob(const MatrixJob &job, const MatrixOptions &options)
{
    Query query;
    query.test = job.test;
    query.model = job.model;
    query.engine = engineSelectOf(job.engine);
    query.options = options.run;
    const Decision decision = decide(query, options.cache);
    return {job.test->name, job.model, job.engine, decision.allowed,
            decision.complete, job.expected, decision.enumStats,
            decision.prescreened};
}

std::vector<LitmusVerdict>
runJobs(const std::vector<MatrixJob> &jobs, const MatrixOptions &options)
{
    // Every SC row runs before the other rows.  A row the prescreen
    // proves SC-equivalent is answered by its test's SC decision, which
    // the SC pass has cached by then: two such rows of one test cannot
    // both miss and decide SC twice.
    std::vector<size_t> passes[2];
    for (size_t i = 0; i < jobs.size(); ++i)
        passes[jobs[i].model == ModelKind::SC ? 0 : 1].push_back(i);

    std::vector<LitmusVerdict> verdicts(jobs.size());
    ThreadPool pool(options.poolThreads);
    // One slot per job: completion order cannot affect the output.
    for (const std::vector<size_t> &pass : passes) {
        pool.parallelFor(pass.size(), [&](size_t k) {
            verdicts[pass[k]] = runJob(jobs[pass[k]], options);
        });
    }
    return verdicts;
}

} // namespace

std::vector<LitmusVerdict>
runLitmusMatrix(const std::vector<litmus::LitmusTest> &tests,
                const std::vector<model::ModelKind> &models,
                const MatrixOptions &options)
{
    std::vector<MatrixJob> jobs;
    for (const auto &test : tests) {
        for (ModelKind model : models) {
            std::optional<bool> expected;
            if (auto it = test.expected.find(model);
                it != test.expected.end()) {
                expected = it->second;
            }
            appendJobs(jobs, test, model, expected, options.engine);
        }
    }
    return runJobs(jobs, options);
}

std::vector<LitmusVerdict>
runPaperMatrix(const std::vector<litmus::LitmusTest> &tests,
               const MatrixOptions &options)
{
    std::vector<MatrixJob> jobs;
    for (const auto &test : tests) {
        for (const auto &[model, expected] : test.expected)
            appendJobs(jobs, test, model, expected, options.engine);
    }
    return runJobs(jobs, options);
}

void
annotateExpected(litmus::LitmusTest &test,
                 const std::vector<model::ModelKind> &models)
{
    for (ModelKind model : models) {
        if (!model::supportsEngine(model, Engine::Axiomatic))
            continue; // no axiomatic definition to derive from
        Query query;
        query.test = &test;
        query.model = model;
        query.engine = EngineSelect::Axiomatic;
        const bool allowed = decide(query).allowed;
        // A conservative operational machine (ARM) cannot reach every
        // axiomatically-allowed outcome, so recording 'allowed' would
        // read as a spurious mismatch when the file is re-run; only
        // 'forbidden' is sound for such models.
        if (!model::operationalOutcomesExact(model) && allowed)
            continue;
        test.expected[model] = allowed;
    }
}

std::string
formatLitmusMatrix(const std::vector<LitmusVerdict> &verdicts)
{
    Table t;
    t.header({"test", "model", "engine", "verdict", "paper", "match"});
    int mismatches = 0;
    int truncated = 0;
    for (const auto &v : verdicts) {
        const bool ok = v.matchesPaper();
        if (!ok)
            ++mismatches;
        // An incomplete 'forbidden' is no verdict at all: the budget
        // ran out before the condition was reached *or* ruled out.
        const bool inconclusive = !v.conclusive();
        if (inconclusive)
            ++truncated;
        t.row({v.test, model::modelName(v.model),
               model::engineName(v.engine),
               inconclusive ? "truncated"
                            : v.allowed ? "allowed" : "forbidden",
               v.expected ? (*v.expected ? "allowed" : "forbidden") : "-",
               inconclusive ? "?" : ok ? "yes" : "MISMATCH"});
    }
    std::string out = t.render();
    out += formatString("\n%d verdicts, %d mismatches with the paper\n",
                        int(verdicts.size()), mismatches);
    if (truncated > 0) {
        out += formatString("%d verdicts truncated by the state budget "
                            "(inconclusive)\n", truncated);
    }
    return out;
}

} // namespace gam::harness
