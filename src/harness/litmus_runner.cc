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

std::vector<LitmusVerdict>
runJobs(const std::vector<MatrixJob> &jobs, const MatrixOptions &options)
{
    // The jobs come test by test.  Each test's jobs are one pool task
    // and one decideBatch() call, so its axiomatic rows share one walk,
    // and a row the prescreen delegates to SC finds the test's SC
    // decision in the cache or on the walk's SC lane: no other task
    // decides that test, whatever the pool size.
    std::vector<size_t> firsts;
    for (size_t i = 0; i < jobs.size(); ++i)
        if (i == 0 || jobs[i].test != jobs[i - 1].test)
            firsts.push_back(i);
    firsts.push_back(jobs.size());

    std::vector<LitmusVerdict> verdicts(jobs.size());
    ThreadPool pool(options.poolThreads);
    // One slot per job: completion order cannot affect the output.
    pool.parallelFor(firsts.size() - 1, [&](size_t t) {
        std::vector<Query> queries;
        for (size_t i = firsts[t]; i < firsts[t + 1]; ++i) {
            Query query;
            query.test = jobs[i].test;
            query.model = jobs[i].model;
            query.engine = engineSelectOf(jobs[i].engine);
            query.options = options.run;
            queries.push_back(query);
        }
        const std::vector<Decision> decisions =
            decideBatch(queries, options.cache);
        for (size_t k = 0; k < decisions.size(); ++k) {
            const MatrixJob &job = jobs[firsts[t] + k];
            const Decision &d = decisions[k];
            verdicts[firsts[t] + k] = {job.test->name, job.model,
                                       job.engine, d.allowed, d.complete,
                                       job.expected, d.enumStats,
                                       d.prescreened};
        }
    });
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
    std::vector<Query> queries;
    for (ModelKind model : models) {
        if (!model::supportsEngine(model, Engine::Axiomatic))
            continue; // no axiomatic definition to derive from
        Query query;
        query.test = &test;
        query.model = model;
        query.engine = EngineSelect::Axiomatic;
        queries.push_back(query);
    }
    // One batch: the models share one walk of the test's candidates.
    const std::vector<Decision> decisions = decideBatch(queries);
    for (size_t i = 0; i < queries.size(); ++i) {
        const ModelKind model = queries[i].model;
        const bool allowed = decisions[i].allowed;
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
