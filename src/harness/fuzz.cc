#include "harness/fuzz.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <sstream>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "harness/decision.hh"
#include "litmus/generator.hh"
#include "litmus/parser.hh"
#include "model/engine.hh"
#include "obs/registry.hh"

namespace gam::harness
{

using model::ModelKind;

namespace
{

std::string
diffOutcomes(const litmus::OutcomeSet &op, const litmus::OutcomeSet &ax,
             bool inclusion_only, model::Engine spec)
{
    const std::string spec_name = model::engineName(spec);
    std::string s;
    for (const auto &o : op) {
        if (!ax.count(o))
            s += "operational only: " + o.toString() + "\n";
    }
    if (!inclusion_only) {
        for (const auto &o : ax) {
            if (!op.count(o))
                s += spec_name + " only: " + o.toString() + "\n";
        }
    }
    return s;
}

/** The EngineSelect pinning a spec engine (never the explorer). */
EngineSelect
specSelect(model::Engine spec)
{
    GAM_ASSERT(spec != model::Engine::Operational,
               "fuzz: the spec engine cannot be the operational "
               "explorer itself");
    return spec == model::Engine::Axiomatic ? EngineSelect::Axiomatic
                                            : EngineSelect::Cat;
}

/**
 * All one-step reductions of @p t: drop one thread (renumbering the
 * constraint and observation thread ids) or drop one instruction
 * (repointing later branch targets).  Candidates that fail
 * LitmusTest::check() are filtered by the shrinker's caller loop.
 */
std::vector<litmus::LitmusTest>
shrinkCandidates(const litmus::LitmusTest &t)
{
    std::vector<litmus::LitmusTest> out;

    if (t.threads.size() > 1) {
        for (size_t drop = 0; drop < t.threads.size(); ++drop) {
            litmus::LitmusTest c = t;
            c.threads.erase(c.threads.begin() +
                            static_cast<std::ptrdiff_t>(drop));
            auto keep_tid = [&](int tid) {
                return tid != static_cast<int>(drop);
            };
            auto shift_tid = [&](int tid) {
                return tid > static_cast<int>(drop) ? tid - 1 : tid;
            };
            std::vector<litmus::RegConstraint> conds;
            for (const auto &rc : c.regCond) {
                if (keep_tid(rc.tid))
                    conds.push_back({shift_tid(rc.tid), rc.reg,
                                     rc.value});
            }
            c.regCond = std::move(conds);
            std::vector<std::pair<int, isa::Reg>> observed;
            for (const auto &[tid, reg] : c.observedRegs) {
                if (keep_tid(tid))
                    observed.emplace_back(shift_tid(tid), reg);
            }
            c.observedRegs = std::move(observed);
            out.push_back(std::move(c));
        }
    }

    for (size_t tid = 0; tid < t.threads.size(); ++tid) {
        for (size_t i = 0; i < t.threads[tid].size(); ++i) {
            litmus::LitmusTest c = t;
            auto &code = c.threads[tid].code;
            code.erase(code.begin() + static_cast<std::ptrdiff_t>(i));
            for (auto &instr : code) {
                if (instr.isBranch()
                    && instr.imm > static_cast<int64_t>(i)) {
                    --instr.imm;
                }
            }
            out.push_back(std::move(c));
        }
    }
    return out;
}

/** Greedily minimise @p test while the divergence reproduces. */
litmus::LitmusTest
shrinkDivergent(litmus::LitmusTest test, ModelKind model,
                uint64_t max_states, model::Engine spec)
{
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto &candidate : shrinkCandidates(test)) {
            if (candidate.check())
                continue;
            bool budget = false;
            if (crossCheck(candidate, model, max_states, &budget, spec)
                && !budget) {
                test = std::move(candidate);
                progress = true;
                break;
            }
        }
    }
    return test;
}

} // anonymous namespace

std::optional<std::string>
crossCheck(const litmus::LitmusTest &test, ModelKind model,
           uint64_t max_states, bool *budget_exceeded,
           model::Engine spec, axiomatic::CheckerStats *spec_stats)
{
    GAM_ASSERT(model::supportsEngine(model, model::Engine::Operational)
                   && model::supportsEngine(model, spec),
               "crossCheck: %s has no operational/%s engine pair",
               model::modelName(model).c_str(),
               model::engineName(spec).c_str());
    if (budget_exceeded)
        *budget_exceeded = false;

    Query query;
    query.test = &test;
    query.model = model;
    query.engine = EngineSelect::Operational;
    query.options.stateBudget = max_states;
    // The differential check compares outcome *sets*; a ValueCover
    // prescreen decision carries none, and an ScDelegate one would put
    // the same analysis on both sides of the comparison.  Exercise the
    // real engines.
    query.options.prescreen = false;
    const Decision op = decide(query);
    if (!op.complete) {
        if (budget_exceeded)
            *budget_exceeded = true;
        return std::nullopt;
    }

    query.engine = specSelect(spec);
    const Decision ax = decide(query);
    if (spec_stats)
        spec_stats->merge(ax.enumStats);

    // A conservative machine (ARM) checks by inclusion, not equality
    // (see model::operationalOutcomesExact).
    const bool inclusion_only = !model::operationalOutcomesExact(model);
    bool diverges;
    if (inclusion_only) {
        diverges = std::any_of(op.outcomes.begin(), op.outcomes.end(),
                               [&](const litmus::Outcome &o) {
                                   return !ax.outcomes.count(o);
                               });
    } else {
        diverges = op.outcomes != ax.outcomes;
    }
    if (!diverges)
        return std::nullopt;
    return diffOutcomes(op.outcomes, ax.outcomes, inclusion_only, spec);
}

FuzzReport
fuzzDifferential(const FuzzOptions &options)
{
    FuzzReport report;
    report.testsRun = options.tests;
    report.spec = options.spec;

    struct Hit
    {
        uint64_t index;
        ModelKind model;
    };
    std::mutex mu;
    std::vector<Hit> hits;
    std::atomic<uint64_t> checks{0};
    std::atomic<uint64_t> skipped{0};

    ThreadPool pool(options.threads);
    pool.parallelFor(options.tests, [&](size_t i) {
        const litmus::LitmusTest test =
            litmus::generateTest(options.seed, i);
        if (test.check())
            return; // generator guarantees this; stay safe regardless
        axiomatic::CheckerStats local;
        for (ModelKind model : options.models) {
            if (!model::supportsEngine(model, model::Engine::Operational)
                || !model::supportsEngine(model, options.spec)) {
                continue; // nothing to cross-check under this spec
            }
            bool budget = false;
            auto diff = crossCheck(test, model, options.maxStates,
                                   &budget, options.spec, &local);
            checks.fetch_add(1, std::memory_order_relaxed);
            if (budget) {
                skipped.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            if (diff) {
                std::lock_guard<std::mutex> lock(mu);
                hits.push_back({i, model});
            }
        }
        std::lock_guard<std::mutex> lock(mu);
        report.specEnumStats.merge(local);
    });

    report.checksRun = checks.load();
    report.skippedBudget = skipped.load();

    // Report through the registry too, so fuzz runs show up in the
    // same snapshot stream as everything else in the decide() stack.
    obs::MetricRegistry &reg = obs::metrics();
    reg.counter("fuzz.tests").inc(report.testsRun);
    reg.counter("fuzz.checks").inc(report.checksRun);
    reg.counter("fuzz.skipped_budget").inc(report.skippedBudget);
    reg.counter("fuzz.divergences").inc(hits.size());

    // Deterministic report order regardless of worker scheduling.
    std::sort(hits.begin(), hits.end(), [](const Hit &a, const Hit &b) {
        return a.index != b.index ? a.index < b.index
                                  : a.model < b.model;
    });
    for (const Hit &hit : hits) {
        FuzzDivergence d;
        d.seed = options.seed;
        d.index = hit.index;
        d.model = hit.model;
        d.test = litmus::generateTest(options.seed, hit.index);
        if (options.shrink) {
            d.test = shrinkDivergent(std::move(d.test), hit.model,
                                     options.maxStates, options.spec);
        }
        d.detail = crossCheck(d.test, hit.model, options.maxStates,
                              nullptr, options.spec)
                       .value_or("");
        report.divergences.push_back(std::move(d));
    }
    return report;
}

std::string
FuzzReport::toString() const
{
    std::ostringstream os;
    os << formatString("fuzz (%s vs operational): %llu tests, %llu "
                       "checks, %llu skipped (state budget), %zu "
                       "divergences\n",
                       model::engineName(spec).c_str(),
                       static_cast<unsigned long long>(testsRun),
                       static_cast<unsigned long long>(checksRun),
                       static_cast<unsigned long long>(skippedBudget),
                       divergences.size());
    os << formatString("spec enumeration: %llu candidates checked, "
                       "%llu partials pruned, %llu subtrees skipped, "
                       "%llu rf maps statically skipped\n",
                       static_cast<unsigned long long>(
                           specEnumStats.coCandidates),
                       static_cast<unsigned long long>(
                           specEnumStats.partialsPruned),
                       static_cast<unsigned long long>(
                           specEnumStats.subtreesSkipped),
                       static_cast<unsigned long long>(
                           specEnumStats.rfStaticSkipped));
    for (const auto &d : divergences) {
        os << "\n=== divergence under " << model::modelName(d.model)
           << " (seed " << d.seed << ", test " << d.index << ") ===\n"
           << litmus::printLitmus(d.test) << "\n" << d.detail;
    }
    return os.str();
}

} // namespace gam::harness
