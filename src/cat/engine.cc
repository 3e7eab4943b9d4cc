#include "cat/engine.hh"

#include <algorithm>
#include <cctype>

#include "base/logging.hh"
#include "cat/compile.hh"
#include "cat/eval.hh"
#include "cat/exec.hh"
#include "model/engine.hh"
#include "obs/trace.hh"

namespace gam::cat
{

CatEngine::CatEngine(const litmus::LitmusTest &test,
                     const CatModel &model, axiomatic::Options options,
                     Mode mode)
    : test(test), model(model), options(std::move(options)), mode(mode)
{
}

const CompiledPlan &
CatEngine::plan()
{
    if (!_plan)
        _plan = compileCatModel(model);
    return *_plan;
}

namespace
{

/**
 * The cat evaluator as an incremental filter: partial candidates are
 * screened by the model's Independent/Monotone axioms (a failure on a
 * partial view can never un-fail as co and fr grow), complete leaves
 * get the full evaluation.  Models with only NonMonotone axioms skip
 * the partial screen entirely -- the conservative fallback.
 */
class CatIncrementalFilter final : public axiomatic::IncrementalFilter
{
  public:
    explicit CatIncrementalFilter(const CatModel &model)
        : eval(model), partialCapable(eval.partialCapable()),
          monotonePartial([&] {
              for (const Stmt &stmt : model.statements) {
                  if (stmt.check
                      && stmt.checkPolarity == Polarity::Monotone)
                      return true;
              }
              return false;
          }())
    {}

    bool
    beginRf(const axiomatic::CandidateExecution &cand) override
    {
        return !partialCapable
            || eval.checkPartial(builder.view(cand), cand.rfEpoch);
    }

    bool
    pushStore(const axiomatic::CandidateExecution &cand, isa::Addr,
              int) override
    {
        // Only Monotone axioms can change verdict below beginRf():
        // Independent ones were decided there for the whole rf epoch.
        return !monotonePartial
            || eval.checkPartial(builder.view(cand), cand.rfEpoch);
    }

    bool
    accept(const axiomatic::CandidateExecution &cand) override
    {
        return eval.check(builder.view(cand), cand.rfEpoch);
    }

  private:
    ExecBuilder builder;
    Evaluator eval;
    const bool partialCapable;
    const bool monotonePartial;
};

} // anonymous namespace

litmus::OutcomeSet
CatEngine::enumerate()
{
    GAM_TRACE_SCOPE("cat.enumerate");
    std::unique_ptr<axiomatic::IncrementalFilter> filter;
    if (mode == Mode::Compiled) {
        plan();
        filter = makeCompiledFilter(_plan);
    } else {
        filter = std::make_unique<CatIncrementalFilter>(model);
    }
    axiomatic::CandidateEnumerator enumerator(test, options);
    litmus::OutcomeSet outcomes =
        std::move(enumerator.run({filter.get()})[0]);
    _stats = enumerator.stats();
    return outcomes;
}

litmus::OutcomeSet
CatEngine::enumerateLegacy()
{
    axiomatic::Checker checker(test, model::ModelKind::GAM, options);
    ExecBuilder builder;
    Evaluator eval(model);
    litmus::OutcomeSet outcomes = checker.enumerateFilteredLegacy(
        [&](const axiomatic::CandidateExecution &candidate) {
            return eval.check(builder.view(candidate),
                              candidate.rfEpoch);
        });
    _stats = checker.stats();
    return outcomes;
}

bool
CatEngine::isAllowed()
{
    options = axiomatic::withConditionSeeds(test, std::move(options));
    const litmus::OutcomeSet outcomes = enumerate();
    return std::any_of(outcomes.begin(), outcomes.end(),
                       [&](const litmus::Outcome &o) {
                           return test.conditionMatches(o);
                       });
}

// ------------------------------------------------- builtin registry

namespace
{

std::string
lowercase(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) {
                       return char(std::tolower(c));
                   });
    return out;
}

struct EmbeddedModel
{
    const char *name;   ///< file stem under models/
    const char *source; ///< verbatim file content
};

/** Generated by CMake from .cat files under models/; see CMakeLists.txt. */
constexpr EmbeddedModel embedded[] = {
#include "cat_builtin_models.inc"
};

} // anonymous namespace

const std::vector<const CatModel *> &
builtinCatModels()
{
    static const std::vector<CatModel> storage = [] {
        std::vector<CatModel> out;
        for (const EmbeddedModel &e : embedded) {
            CatParseResult parsed = parseCat(e.source, e.name);
            GAM_ASSERT(parsed.ok(),
                       "embedded cat model '%s' does not parse: %s",
                       e.name, parsed.error.toString().c_str());
            out.push_back(std::move(*parsed.model));
        }
        return out;
    }();
    static const std::vector<const CatModel *> models = [] {
        std::vector<const CatModel *> out;
        for (const CatModel &m : storage)
            out.push_back(&m);
        return out;
    }();
    return models;
}

const CatModel *
findBuiltinCatModel(const std::string &name)
{
    const std::string want = lowercase(name);
    for (const CatModel *model : builtinCatModels()) {
        if (lowercase(model->name) == want)
            return model;
    }
    return nullptr;
}

const CatModel &
builtinCatModel(model::ModelKind kind)
{
    GAM_ASSERT(model::supportsEngine(kind, model::Engine::Cat),
               "no builtin cat model for %s",
               model::modelName(kind).c_str());
    const CatModel *model =
        findBuiltinCatModel(model::modelName(kind));
    GAM_ASSERT(model != nullptr,
               "registry/model mismatch: %s supports Engine::Cat but "
               "models/ ships no such file",
               model::modelName(kind).c_str());
    return *model;
}

std::optional<model::ModelKind>
catModelKind(const CatModel &model)
{
    const std::string want = lowercase(model.name);
    for (model::ModelKind kind : model::axiomaticModels) {
        if (lowercase(model::modelName(kind)) == want)
            return kind;
    }
    return std::nullopt;
}

} // namespace gam::cat
