/**
 * @file
 * gam-litmus: the litmus-test command line frontend.
 *
 * Every command and option is declared once, in commands() below: one
 * parser reads argv against that table and usage() prints it, so
 * `gam-litmus` without arguments lists them all.  What the table does
 * not say:
 *
 *  - A test or cat-model operand names a file when it contains a '.'
 *    or a '/', and is parsed from that file (litmus text or cat
 *    source); any other operand must be a built-in name, as listed by
 *    `gam-litmus list` or `gam-litmus model list`.
 *
 *  - Exit codes: 0 on success.  1 when the work itself fails: a
 *    verdict contradicting an expectation the test records, a fuzz
 *    divergence, a model-check mismatch or lint warning, a campaign
 *    verification mismatch or store hit rate below
 *    --min-store-hit-rate, or a trace or metrics file that cannot be
 *    written.  2 on bad input: an unknown command or option, a missing
 *    or unacceptable value, a missing operand, an unknown name, an
 *    unreadable or malformed file, or a file that is not a campaign
 *    store.  Each is reported on one stderr line, and an argument error
 *    stops the run before any work; nothing aborts the process.
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "analysis/lint.hh"
#include "base/table.hh"
#include "campaign/driver.hh"
#include "cat/compile.hh"
#include "cat/engine.hh"
#include "harness/fuzz.hh"
#include "harness/litmus_runner.hh"
#include "litmus/generator.hh"
#include "litmus/parser.hh"
#include "litmus/suite.hh"
#include "model/engine.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace
{

using namespace gam;
using model::ModelKind;

/** Everything a command line sets; each command reads its own fields. */
struct Args
{
    std::vector<std::string> operands;
    // run
    harness::MatrixOptions matrix;
    std::vector<ModelKind> models;
    bool stats = false;
    // run, campaign status, campaign query
    bool json = false;
    // run, campaign run
    std::string trace;
    // gen
    std::optional<uint64_t> tests;
    std::optional<uint64_t> seed;
    std::string outDir;
    bool verdicts = true;
    bool fourThread = false;
    // fuzz
    harness::FuzzOptions fuzz;
    // campaign run
    campaign::CampaignOptions campaign;
    std::string metrics = "campaign_metrics.json";
    double minStoreHitRate = -1.0;
    bool quiet = false;
    // campaign run, status, query
    std::string store;
    // campaign query
    std::optional<ModelKind> modelFilter;
    std::optional<bool> allowedFilter;
    std::optional<std::pair<ModelKind, ModelKind>> disagree;
    // campaign compact
    std::string output;
    // model show
    bool plan = false;
};

/** The values given to one option, one per word of its placeholder. */
using Values = std::vector<std::string>;

/** One option of one command: the only place it is declared. */
struct Option
{
    /** The spelling, e.g. "--threads". */
    std::string name;
    /** The value placeholder, one word per value; empty for a flag. */
    std::string value;
    std::string help;
    /** The values it accepts, for the error line. */
    std::string accepts;
    /** Store the values; false if one is not accepted. */
    std::function<bool(const Values &)> set;
    /** A required option is part of the command's synopsis. */
    bool required = false;
};

/** One command: its path, operands, one-line summary and options. */
struct Command
{
    /** The words that select it, e.g. "campaign run". */
    std::string path;
    /** The operand placeholder; empty when it takes none, and
     *  otherwise at least one is required. */
    std::string operands;
    std::string summary;
    std::vector<Option> options;
    int (*run)(Args &);
};

/** The widest worker pool a command line may ask for. */
constexpr uint64_t MaxThreads = 1024;

/** A flag: giving it stores @p value into @p field. */
template <typename T>
Option
flag(const char *name, const char *help, T &field,
     std::type_identity_t<T> value)
{
    return {name, "", help, "", [&field, value](const Values &) {
                field = value;
                return true;
            }};
}

/** A file or directory name, stored into @p field; a @p required one
 *  is part of the command's synopsis. */
Option
file(const char *name, const char *value, const char *help,
     std::string &field, bool required = false)
{
    return {name, value, help, "",
            [&field](const Values &v) {
                field = v[0];
                return true;
            },
            required};
}

/** A decimal count in @p lo..@p hi, capped to what @p field holds. */
template <typename Field>
Option
count(const char *name, const char *value, const char *help, Field &field,
      uint64_t lo = 0, uint64_t hi = std::numeric_limits<uint64_t>::max())
{
    // The field's type, or the type an optional field holds.
    using T = std::decay_t<decltype(*std::optional(field))>;
    hi = std::min<uint64_t>(hi, std::numeric_limits<T>::max());
    return {name, value, help,
            "a count in " + std::to_string(lo) + ".." + std::to_string(hi),
            [&field, lo, hi](const Values &v) {
                const char *end = v[0].data() + v[0].size();
                uint64_t n = 0;
                const auto [ptr, ec] = std::from_chars(v[0].data(), end, n);
                if (ec != std::errc() || ptr != end || n < lo || n > hi)
                    return false;
                field = static_cast<T>(n);
                return true;
            }};
}

/** A worker-thread count, 0 (hardware concurrency) to MaxThreads. */
Option
threads(unsigned &field)
{
    return count("--threads", "N", "worker threads (0 = hardware)", field,
                 0, MaxThreads);
}

/** The names of @p items, as @p name spells them, comma-separated. */
template <typename Items, typename Name>
std::string
names(const Items &items, Name name)
{
    std::string out;
    for (const auto &item : items)
        out += (out.empty() ? "" : ", ") + name(item);
    return out;
}

/** Parse a comma-separated list of @p parse's names into @p out. */
template <typename T, typename Parse>
bool
parseList(const std::string &value, Parse parse, std::vector<T> &out)
{
    out.clear();
    std::istringstream is(value);
    std::string name;
    while (std::getline(is, name, ',')) {
        std::optional<T> item = parse(name);
        if (!item)
            return false;
        out.push_back(*item);
    }
    return true;
}

/**
 * Export the collected trace to @p path (call only after worker pools
 * have drained).  Returns false (with a message) on I/O failure.
 */
bool
writeTrace(const std::string &path)
{
    const obs::TraceCollector &tc = obs::TraceCollector::instance();
    if (!tc.writeChromeJson(path)) {
        std::fprintf(stderr, "gam-litmus: cannot write trace '%s'\n",
                     path.c_str());
        return false;
    }
    std::fprintf(stderr, "trace: %llu spans written to %s",
                 (unsigned long long)tc.retainedEvents(), path.c_str());
    if (tc.droppedEvents())
        std::fprintf(stderr, " (%llu oldest spans dropped)",
                     (unsigned long long)tc.droppedEvents());
    std::fprintf(stderr, "\n");
    return true;
}

/**
 * The name-or-file loader: @p arg names a file when it contains a '.'
 * or '/', and @p parse turns the file's text into the value (or sets
 * the error); any other @p arg is a built-in @p what that @p find
 * looks up and `gam-litmus @p lister` lists.  A path that exists but
 * is not a regular file (a directory, say) is refused unread.  Each
 * failure is reported on one stderr line and yields an empty result.
 */
template <typename Find, typename Parse>
auto
loadNamed(const std::string &arg, const char *what, const char *lister,
          Find find, Parse parse) -> decltype(find(arg))
{
    if (arg.find_first_of("./") == std::string::npos) {
        auto found = find(arg);
        if (!found) {
            std::fprintf(stderr,
                         "gam-litmus: unknown %s '%s' (see gam-litmus %s)\n",
                         what, arg.c_str(), lister);
        }
        return found;
    }
    std::error_code ec;
    const auto type = std::filesystem::status(arg, ec).type();
    std::string error = "cannot open file";
    auto parsed = decltype(find(arg)){};
    if (type == std::filesystem::file_type::regular) {
        std::ifstream in(arg);
        std::ostringstream text;
        text << in.rdbuf();
        if (in)
            parsed = parse(text.str(), error);
    } else if (!ec) {
        error = "not a regular file";
    }
    if (!parsed)
        std::fprintf(stderr, "gam-litmus: %s: %s\n", arg.c_str(),
                     error.c_str());
    return parsed;
}

std::optional<litmus::LitmusTest>
loadTest(const std::string &arg)
{
    using Loaded = std::optional<litmus::LitmusTest>;
    return loadNamed(
        arg, "test", "list",
        [](const std::string &name) {
            const litmus::LitmusTest *t = litmus::findTest(name);
            return t ? Loaded(*t) : std::nullopt;
        },
        [](const std::string &text, std::string &error) -> Loaded {
            auto parsed = litmus::parseLitmus(text);
            if (parsed)
                return *std::move(parsed.test);
            error = parsed.error.toString();
            return std::nullopt;
        });
}

/** A cat model: shipped ones alias the library's registry (no-op
 *  deleter); one from a file is named after the file's stem. */
std::shared_ptr<const cat::CatModel>
loadCatModel(const std::string &arg)
{
    using Loaded = std::shared_ptr<const cat::CatModel>;
    return loadNamed(
        arg, "cat model", "model list",
        [](const std::string &name) {
            return Loaded(cat::findBuiltinCatModel(name),
                          [](const cat::CatModel *) {});
        },
        [&arg](const std::string &text, std::string &error) -> Loaded {
            const auto slash = arg.find_last_of('/');
            const std::string base =
                slash == std::string::npos ? arg : arg.substr(slash + 1);
            cat::CatParseResult parsed =
                cat::parseCat(text, base.substr(0, base.find_last_of('.')));
            if (!parsed.ok()) {
                error = parsed.error.toString();
                return nullptr;
            }
            return std::make_shared<cat::CatModel>(
                std::move(*parsed.model));
        });
}

/** Every test operand, or nullopt once one does not load. */
std::optional<std::vector<litmus::LitmusTest>>
loadTests(const std::vector<std::string> &operands)
{
    std::vector<litmus::LitmusTest> tests;
    for (const std::string &operand : operands) {
        auto test = loadTest(operand);
        if (!test)
            return std::nullopt;
        tests.push_back(*std::move(test));
    }
    return tests;
}

int
cmdList(Args &)
{
    for (const auto &t : litmus::allTests()) {
        std::printf("  %-20s %-12s %s\n", t.name.c_str(),
                    t.paperRef.c_str(), t.description.c_str());
    }
    return 0;
}

int
cmdRun(Args &a)
{
    const auto tests = loadTests(a.operands);
    if (!tests)
        return 2;
    if (a.models.empty()) {
        a.models = {ModelKind::SC, ModelKind::TSO, ModelKind::GAM0,
                    ModelKind::GAM, ModelKind::ARM};
    }

    const auto before = harness::globalDecisionCache().stats();
    const obs::MetricSnapshot metrics_before = obs::metrics().snapshot();
    if (!a.trace.empty())
        obs::TraceCollector::instance().enable();
    auto verdicts = harness::runLitmusMatrix(*tests, a.models, a.matrix);
    if (!a.trace.empty()) {
        // The matrix pool has drained: the rings are quiescent.
        obs::TraceCollector::instance().disable();
        if (!writeTrace(a.trace))
            return 1;
    }
    if (verdicts.empty()) {
        // Everything was skipped (e.g. --model PerLocSC --engine
        // operational); an empty matrix must not read as success.
        std::fprintf(stderr, "gam-litmus: no decidable (model, engine) "
                             "combination for the given tests\n");
        return 2;
    }
    if (a.json) {
        // The machine-readable twin of the text output: exactly this
        // run's registry delta in the gam-metrics-v1 schema.
        std::printf("%s", obs::metrics()
                              .snapshot()
                              .delta(metrics_before)
                              .toJson()
                              .c_str());
    } else {
        std::printf("%s", harness::formatLitmusMatrix(verdicts).c_str());
    }
    if (a.stats && !a.json) {
        const auto after = harness::globalDecisionCache().stats();
        const size_t resident = harness::globalDecisionCache().size();
        const size_t capacity = harness::globalDecisionCache().capacity();
        std::printf("decision cache: %llu hits, %llu misses, "
                    "%llu evictions, %llu/%llu resident (%.1f%% "
                    "occupancy)\n",
                    (unsigned long long)(after.hits - before.hits),
                    (unsigned long long)(after.misses - before.misses),
                    (unsigned long long)(after.evictions
                                         - before.evictions),
                    (unsigned long long)resident,
                    (unsigned long long)capacity,
                    capacity ? 100.0 * double(resident) / double(capacity)
                             : 0.0);
        std::printf("cache shards: %u shards, max %llu residents, "
                    "mean %.1f (skew %.2f)\n",
                    after.shardCount,
                    (unsigned long long)after.shardMax, after.shardMean,
                    after.shardMean > 0.0
                        ? double(after.shardMax) / after.shardMean
                        : 0.0);
        std::printf("cache outcome sets: %llu distinct shared by %llu "
                    "residents\n",
                    (unsigned long long)after.outcomeSets,
                    (unsigned long long)after.residents);
        size_t value_cover = 0;
        size_t sc_delegate = 0;
        for (const auto &v : verdicts) {
            value_cover +=
                v.prescreened == harness::PrescreenKind::ValueCover;
            sc_delegate +=
                v.prescreened == harness::PrescreenKind::ScDelegate;
        }
        std::printf("prescreen: %zu/%zu decisions short-circuited "
                    "(%zu value-cover, %zu sc-delegate)\n",
                    value_cover + sc_delegate, verdicts.size(),
                    value_cover, sc_delegate);
        // Aggregate the incremental-enumeration counters over the
        // axiomatic/cat rows (operational rows carry none).
        axiomatic::CheckerStats enum_stats;
        size_t enum_rows = 0;
        for (const auto &v : verdicts) {
            if (!model::engineUsesCandidateEnumeration(v.engine))
                continue;
            ++enum_rows;
            enum_stats.merge(v.enumStats);
        }
        if (enum_rows > 0) {
            std::printf(
                "enumeration (%zu rows): %llu rf maps tried "
                "(%llu skipped statically), %llu value-consistent, "
                "%llu candidates checked, %llu accepted\n"
                "pruning: %llu rf prefixes cut, %llu partials pruned, "
                "%llu complete candidates never built, "
                "max backtrack depth %llu\n",
                enum_rows,
                (unsigned long long)enum_stats.rfCandidates,
                (unsigned long long)enum_stats.rfStaticSkipped,
                (unsigned long long)enum_stats.valueConsistent,
                (unsigned long long)enum_stats.coCandidates,
                (unsigned long long)enum_stats.accepted,
                (unsigned long long)enum_stats.rfPruned,
                (unsigned long long)enum_stats.partialsPruned,
                (unsigned long long)enum_stats.subtreesSkipped,
                (unsigned long long)enum_stats.maxBacktrackDepth);
        }
    }
    for (const auto &v : verdicts)
        if (!v.matchesPaper())
            return 1;
    return 0;
}

int
cmdPrint(Args &a)
{
    const auto tests = loadTests(a.operands);
    if (!tests)
        return 2;
    bool first = true;
    for (const litmus::LitmusTest &test : *tests) {
        if (!first)
            std::printf("\n");
        first = false;
        std::printf("%s", litmus::printLitmus(test).c_str());
    }
    return 0;
}

int
cmdGen(Args &a)
{
    if (a.fourThread && (a.tests || a.seed)) {
        std::fprintf(stderr,
                     "gam-litmus: --four-thread emits the fixed named "
                     "families; --tests/--seed do not apply\n");
        return 2;
    }

    // Random-stream tests are annotated against every model; the
    // named four-thread families against the four models their corpus
    // copies pin (the satellite IRIW/WRC+/W+RWC verdicts).
    const std::vector<ModelKind> models = a.fourThread
        ? std::vector<ModelKind>{ModelKind::SC, ModelKind::TSO,
                                 ModelKind::GAM0, ModelKind::GAM}
        : std::vector<ModelKind>{ModelKind::SC, ModelKind::TSO,
                                 ModelKind::GAM0, ModelKind::GAM,
                                 ModelKind::ARM};

    // Each test is printed or written as soon as it is generated.
    bool first = true;
    auto emit = [&](litmus::LitmusTest test) {
        if (a.verdicts)
            harness::annotateExpected(test, models);
        const std::string text = litmus::printLitmus(test);
        if (a.outDir.empty()) {
            if (!first)
                std::printf("\n");
            first = false;
            std::printf("%s", text.c_str());
            return true;
        }
        const std::string path = a.outDir + "/" + test.name + ".litmus";
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "gam-litmus: cannot write '%s'\n",
                         path.c_str());
            return false;
        }
        out << text;
        return true;
    };
    if (a.fourThread) {
        for (const litmus::LitmusTest &test : litmus::fourThreadSuite())
            if (!emit(test))
                return 2;
        return 0;
    }
    for (uint64_t i = 0; i < a.tests.value_or(10); ++i)
        if (!emit(litmus::generateTest(a.seed.value_or(1), i)))
            return 2;
    return 0;
}

int
cmdFuzz(Args &a)
{
    harness::FuzzReport report = harness::fuzzDifferential(a.fuzz);
    std::printf("%s", report.toString().c_str());
    return report.ok() ? 0 : 1;
}

int
cmdModelList(Args &)
{
    for (const cat::CatModel *m : cat::builtinCatModels()) {
        std::string axioms;
        for (const std::string &name : m->axiomNames) {
            if (!axioms.empty())
                axioms += ", ";
            axioms += name;
        }
        std::printf("  %-8s %2zu definitions, %zu axioms (%s)\n",
                    m->name.c_str(), m->definitionNames.size(),
                    m->axiomNames.size(), axioms.c_str());
    }
    return 0;
}

/** Run @p one on every model operand once all have loaded (2 if one
 *  does not); the worst exit code wins. */
int
forEachModel(const Args &a,
             const std::function<int(const cat::CatModel &,
                                     const std::string &)> &one)
{
    std::vector<std::shared_ptr<const cat::CatModel>> models;
    for (const std::string &operand : a.operands) {
        models.push_back(loadCatModel(operand));
        if (!models.back())
            return 2;
    }
    int rc = 0;
    for (size_t i = 0; i < models.size(); ++i)
        rc = std::max(rc, one(*models[i], a.operands[i]));
    return rc;
}

int
cmdModelShow(Args &a)
{
    return forEachModel(a, [&](const cat::CatModel &m,
                               const std::string &) {
        // With --plan, the compiler's own view of the model: what the
        // incremental filter evaluates once per epoch, per push, and
        // at leaves.
        std::printf("%s", a.plan
                              ? cat::compileCatModel(m)->describe().c_str()
                              : m.source.c_str());
        return 0;
    });
}

int
checkModel(const cat::CatModel &m, const std::string &)
{
    std::printf("model %s: parsed OK (%zu definitions, %zu axioms)\n",
                m.name.c_str(), m.definitionNames.size(),
                m.axiomNames.size());

    // Run every built-in litmus test under the model; when the model
    // names a built-in kind with an axiomatic definition, cross-check
    // verdict-for-verdict against the hand-coded checker.
    const auto kind = cat::catModelKind(m);
    const bool compare = kind.has_value()
        && model::supportsEngine(*kind, model::Engine::Axiomatic);
    if (compare) {
        std::printf("cross-checking against the hand-coded axiomatic "
                    "checker for %s\n",
                    model::modelName(*kind).c_str());
    } else {
        std::printf("custom model (no hand-coded reference); "
                    "reporting verdicts only\n");
    }

    Table t;
    t.header(compare
                 ? std::vector<std::string>{"test", "cat", "axiomatic",
                                            "match"}
                 : std::vector<std::string>{"test", "cat"});
    int mismatches = 0;
    for (const auto &test : litmus::allTests()) {
        // Both sides go through the unified decide() API (and its
        // cache); the explicit catModel also covers custom files
        // whose name maps to no builtin ModelKind.
        harness::Query query;
        query.test = &test;
        query.model = kind.value_or(model::ModelKind::GAM);
        query.engine = harness::EngineSelect::Cat;
        query.catModel = &m;
        const bool cat_allowed = harness::decide(query).allowed;
        const char *cat_text = cat_allowed ? "allowed" : "forbidden";
        if (!compare) {
            t.row({test.name, cat_text});
            continue;
        }
        query.engine = harness::EngineSelect::Axiomatic;
        query.catModel = nullptr;
        const bool ax_allowed = harness::decide(query).allowed;
        const bool ok = cat_allowed == ax_allowed;
        if (!ok)
            ++mismatches;
        t.row({test.name, cat_text,
               ax_allowed ? "allowed" : "forbidden",
               ok ? "yes" : "MISMATCH"});
    }
    std::printf("%s", t.render().c_str());
    if (compare) {
        std::printf("%zu tests, %d mismatches\n",
                    litmus::allTests().size(), mismatches);
        return mismatches == 0 ? 0 : 1;
    }
    return 0;
}

int
cmdModelCheck(Args &a)
{
    return forEachModel(a, checkModel);
}

int
lintModel(const cat::CatModel &m, const std::string &arg)
{
    const auto diags = analysis::lint(m);
    for (const auto &d : diags)
        std::printf("%s: %s\n", arg.c_str(), d.toString().c_str());
    bool warned = false;
    for (const auto &d : diags)
        warned |= d.severity == analysis::LintSeverity::Warning;
    if (diags.empty())
        std::printf("%s: clean\n", arg.c_str());
    return warned ? 1 : 0;
}

int
cmdModelLint(Args &a)
{
    return forEachModel(a, lintModel);
}

std::string
formatEta(double seconds)
{
    const auto s = uint64_t(seconds);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu:%02llu:%02llu",
                  (unsigned long long)(s / 3600),
                  (unsigned long long)(s / 60 % 60),
                  (unsigned long long)(s % 60));
    return buf;
}

int
cmdCampaignRun(Args &a)
{
    const campaign::EnumerateOptions &bounds = a.campaign.enumerate;
    if (bounds.minLen > bounds.maxLen) {
        std::fprintf(stderr,
                     "gam-litmus: --min-cycle-len %d is above "
                     "--max-cycle-len %d\n",
                     bounds.minLen, bounds.maxLen);
        return 2;
    }

    std::unique_ptr<campaign::DecisionStore> store;
    if (!a.store.empty()) {
        std::string error;
        store = campaign::DecisionStore::open(
            a.store, campaign::StoreOpen::Create, &error);
        if (!store) {
            std::fprintf(stderr, "gam-litmus: %s\n", error.c_str());
            return 2;
        }
        const auto s = store->stats();
        std::fprintf(stderr,
                     "store: %llu records recovered from %s (%llu "
                     "torn-tail bytes dropped)\n",
                     (unsigned long long)s.loaded, a.store.c_str(),
                     (unsigned long long)s.droppedBytes);
    }

    auto progress = [&](const campaign::CampaignProgress &p) {
        const double rate = p.seconds > 0
            ? double(p.decisionsDone) / p.seconds : 0.0;
        const uint64_t left = p.decisionsTotal - p.decisionsDone;
        std::fprintf(stderr,
                     "campaign: %llu/%llu decisions (%.0f/s, %.1f%% "
                     "store hits), ETA %s\n",
                     (unsigned long long)p.decisionsDone,
                     (unsigned long long)p.decisionsTotal, rate,
                     p.decisionsDone ? 100.0 * double(p.storeHits)
                             / double(p.decisionsDone)
                                     : 0.0,
                     rate > 0 ? formatEta(double(left) / rate).c_str()
                              : "--");
    };
    if (!a.trace.empty())
        obs::TraceCollector::instance().enable();
    const campaign::CampaignResult result = campaign::runCampaign(
        a.campaign, store.get(),
        a.quiet ? std::function<void(const campaign::CampaignProgress &)>{}
                : progress);
    if (!a.trace.empty()) {
        // runCampaign() has joined its workers.
        obs::TraceCollector::instance().disable();
        if (!writeTrace(a.trace))
            return 1;
    }
    if (!a.metrics.empty()) {
        std::ofstream out(a.metrics, std::ios::trunc);
        out << result.metrics.toJson();
        if (!out.good()) {
            std::fprintf(stderr,
                         "gam-litmus: cannot write metrics '%s'\n",
                         a.metrics.c_str());
            return 1;
        }
        std::fprintf(stderr, "metrics: registry delta written to %s\n",
                     a.metrics.c_str());
    }

    std::printf("%s", campaign::formatCampaign(result).c_str());
    if (store) {
        const auto s = store->stats();
        std::printf("store: %llu appended this run, %zu resident, "
                    "%llu duplicate offers\n",
                    (unsigned long long)s.appended, store->size(),
                    (unsigned long long)s.duplicates);
    }

    if (result.verifyMismatches > 0) {
        std::fprintf(stderr,
                     "gam-litmus: %llu verification samples disagreed "
                     "with the store\n",
                     (unsigned long long)result.verifyMismatches);
        return 1;
    }
    if (a.minStoreHitRate >= 0.0) {
        const double rate = result.decisions
            ? 100.0 * double(result.storeHits) / double(result.decisions)
            : 0.0;
        if (rate < a.minStoreHitRate) {
            std::fprintf(stderr,
                         "gam-litmus: store hit rate %.2f%% below the "
                         "required %.2f%%\n",
                         rate, a.minStoreHitRate);
            return 1;
        }
    }
    return 0;
}

/** `campaign status` and `campaign query`: query's filters are unset
 *  under status, whose table lacks them. */
int
cmdCampaignStatus(Args &a)
{
    std::string error;
    const auto opened = campaign::DecisionStore::open(
        a.store, campaign::StoreOpen::Existing, &error);
    if (!opened) {
        std::fprintf(stderr, "gam-litmus: %s\n", error.c_str());
        return 2;
    }
    const campaign::DecisionStore &store = *opened;
    const auto s = store.stats();
    if (a.disagree) {
        const auto [ma, mb] = *a.disagree;
        if (a.json) {
            // Count-only JSON view: enough for CI gates to pin the
            // GAM-vs-GAM0 disagreement count without parsing text.
            obs::MetricRegistry reg;
            const auto list = campaign::disagreeingTests(store, ma, mb);
            reg.counter("store.disagree.tests").inc(list.size());
            std::printf("%s", reg.snapshot().toJson().c_str());
            return 0;
        }
        std::printf("%s",
                    campaign::formatDisagreements(store, ma, mb).c_str());
        return 0;
    }
    if (a.json) {
        // The machine-readable twin of the text summary: a local
        // registry (not the process-wide one) holding per-(model,
        // engine) record counts, emitted in the gam-metrics-v1 schema.
        // Model names are folded through metricSegment ("Alpha*" ->
        // "alpha_") so every key is a well-formed metric name.
        obs::MetricRegistry reg;
        std::unordered_set<uint64_t> tests;
        uint64_t matched = 0;
        store.forEach([&](const campaign::StoreRecord &rec) {
            if (a.modelFilter && rec.model != *a.modelFilter)
                return;
            if (a.allowedFilter && rec.allowed != *a.allowedFilter)
                return;
            ++matched;
            tests.insert(rec.testFingerprint);
            const std::string prefix = "store."
                + obs::metricSegment(model::modelName(rec.model)) + "."
                + obs::metricSegment(model::engineName(rec.engine));
            reg.counter(prefix + ".records").inc();
            if (rec.allowed)
                reg.counter(prefix + ".allowed").inc();
            if (rec.prescreened != harness::PrescreenKind::None)
                reg.counter(prefix + ".prescreened").inc();
        });
        reg.counter("store.records").inc(matched);
        reg.counter("store.tests").inc(tests.size());
        reg.counter("store.resident").inc(store.size());
        reg.counter("store.recovery.dropped_bytes").inc(s.droppedBytes);
        std::printf("%s", reg.snapshot().toJson().c_str());
        return 0;
    }
    std::printf("%s", campaign::formatStoreSummary(store, a.modelFilter,
                                                   a.allowedFilter)
                          .c_str());
    if (s.droppedBytes)
        std::printf("recovery: %llu torn-tail bytes dropped at open\n",
                    (unsigned long long)s.droppedBytes);
    return 0;
}

int
cmdCampaignCompact(Args &a)
{
    std::string error;
    const auto stats = campaign::compactStores(a.operands, a.output,
                                               &error);
    if (!stats) {
        std::fprintf(stderr, "gam-litmus: %s\n", error.c_str());
        return 2;
    }
    std::printf("compacted %llu inputs: %llu records scanned, %llu "
                "merged, %llu duplicates dropped -> %s\n",
                (unsigned long long)stats->inputs,
                (unsigned long long)stats->scanned,
                (unsigned long long)stats->merged,
                (unsigned long long)stats->duplicates, a.output.c_str());
    return 0;
}

/**
 * Every command, in usage order, with every option it accepts: the one
 * place each is declared.  The options' setters store into @p a.
 */
std::vector<Command>
commands(Args &a)
{
    const std::string models = names(model::allModelKinds, model::modelName);
    const std::string engines = names(model::allEngines, model::engineName);
    campaign::EnumerateOptions &cycles = a.campaign.enumerate;
    const Option trace = file("--trace", "FILE",
                              "write a Chrome trace_event JSON of the run",
                              a.trace);
    const Option store =
        file("--store", "FILE", "the decision store to read", a.store, true);
    const Option json = flag(
        "--json", "print gam-metrics-v1 JSON instead of text", a.json, true);
    return {
        {"list", "", "list built-in tests", {}, cmdList},
        {"run", "<test|file>...", "decide tests and print the verdict matrix",
         {{"--model", "M",
           "decide under memory model M, repeatable: " + models
               + " (default SC, TSO, GAM0, GAM, ARM)",
           "one of " + models,
           [&a](const Values &v) {
               const auto kind = model::modelFromName(v[0]);
               if (kind)
                   a.models.push_back(*kind);
               return kind.has_value();
           }},
          {"--engine", "E",
           "decide with one engine (" + engines
               + "), or let the registry pick one (auto); default: all",
           "one of " + engines + ", auto",
           [&a](const Values &v) {
               const auto engine = model::engineFromName(v[0]);
               if (engine)
                   a.matrix.engine = harness::engineSelectOf(*engine);
               else if (v[0] == "auto")
                   a.matrix.engine = harness::EngineSelect::Auto;
               return engine || v[0] == "auto";
           }},
          threads(a.matrix.poolThreads),
          count("--budget", "M", "explorer visited-state budget",
                a.matrix.run.stateBudget),
          flag("--stats",
               "print decision-cache, prescreen and enumeration counters",
               a.stats, true),
          flag("--json",
               "print this run's metrics registry delta as gam-metrics-v1 "
               "JSON instead of text output",
               a.json, true),
          trace,
          flag("--no-prescreen", "disable the static pre-screen in decide()",
               a.matrix.run.prescreen, false),
          flag("--no-cat-compile",
               "run cat queries through the interpreting evaluator instead "
               "of the compiled plan",
               a.matrix.run.catCompile, false)},
         cmdRun},
        {"print", "<test|file>...", "re-emit tests in canonical text form",
         {}, cmdPrint},
        {"gen", "", "emit generated litmus documents with axiomatic verdicts",
         {count("--tests", "N", "tests to emit (default 10)", a.tests),
          count("--seed", "S", "generator stream seed (default 1)", a.seed),
          file("--out", "DIR", "write DIR/<test>.litmus files instead",
               a.outDir),
          flag("--no-verdicts", "leave the expected verdicts out",
               a.verdicts, false),
          flag("--four-thread",
               "emit the named IRIW/WRC+/W+RWC cycle families instead of "
               "the random stream",
               a.fourThread, true)},
         cmdGen},
        {"fuzz", "",
         "differential-fuzz a spec engine against the operational explorer",
         {count("--tests", "N", "generated tests (default 1000)",
                a.fuzz.tests),
          count("--seed", "S", "generator stream seed (default 1)",
                a.fuzz.seed),
          threads(a.fuzz.threads),
          count("--max-states", "M", "explorer state budget per check",
                a.fuzz.maxStates),
          flag("--no-shrink", "report divergences unshrunk", a.fuzz.shrink,
               false),
          {"--engine", "E", "spec engine: axiomatic (default) or cat",
           "axiomatic or cat",
           [&a](const Values &v) {
               const auto engine = model::engineFromName(v[0]);
               if (engine && *engine != model::Engine::Operational)
                   a.fuzz.spec = *engine;
               return engine && *engine != model::Engine::Operational;
           }}},
         cmdFuzz},
        {"campaign run", "", "decide the exhaustive canonical test universe",
         {count("--max-cycle-len", "N", "cycle length bound (default 6)",
                cycles.maxLen, litmus::MinCycleLength,
                litmus::MaxCycleLength),
          count("--min-cycle-len", "N", "shortest cycle length (default 3)",
                cycles.minLen, litmus::MinCycleLength,
                litmus::MaxCycleLength),
          {"--canonical", "rotation|full",
           "symmetry quotient of the universe (default rotation)",
           "rotation or full",
           [&cycles](const Values &v) {
               cycles.canonical = v[0] == "full"
                   ? campaign::CanonicalForm::Full
                   : campaign::CanonicalForm::Rotation;
               return v[0] == "full" || v[0] == "rotation";
           }},
          {"--models", "A,B,..", "default SC,TSO,GAM0,GAM",
           "models from " + models,
           [&a](const Values &v) {
               return parseList(v[0], model::modelFromName,
                                a.campaign.models);
           }},
          {"--engines", "A,B,..", "default axiomatic",
           "engines from " + engines,
           [&a](const Values &v) {
               return parseList(v[0], model::engineFromName,
                                a.campaign.engines);
           }},
          threads(a.campaign.threads),
          count("--limit", "N", "decide at most N tests (0 = all)",
                a.campaign.limit),
          flag("--no-fences", "leave fences out of the edge vocabulary",
               cycles.fences, false),
          flag("--no-deps", "leave dependencies out of the edge vocabulary",
               cycles.deps, false),
          flag("--no-rmws", "leave RMWs out of the edge vocabulary",
               cycles.rmws, false),
          file("--store", "FILE",
               "persistent decision store (append-log); re-run with the "
               "same store to resume",
               a.store),
          count("--verify", "N", "re-decide every Nth decision from scratch",
                a.campaign.verifySample),
          {"--min-store-hit-rate", "P", "exit 1 below P% store hits",
           "a percentage in 0..100",
           [&a](const Values &v) {
               char *end = nullptr;
               a.minStoreHitRate = std::strtod(v[0].c_str(), &end);
               return end != v[0].c_str() && *end == '\0'
                   && a.minStoreHitRate >= 0 && a.minStoreHitRate <= 100;
           }},
          flag("--quiet", "no progress lines", a.quiet, true),
          file("--metrics", "FILE",
               "write the run's registry delta as JSON (default "
               "campaign_metrics.json; '' for none)",
               a.metrics),
          trace},
         cmdCampaignRun},
        {"campaign status", "", "summarise a decision store", {store, json},
         cmdCampaignStatus},
        {"campaign query", "", "summarise matching records",
         {store,
          {"--model", "M", "only records of memory model M",
           "one of " + models,
           [&a](const Values &v) {
               a.modelFilter = model::modelFromName(v[0]);
               return a.modelFilter.has_value();
           }},
          flag("--allowed", "only allowed verdicts", a.allowedFilter, true),
          flag("--forbidden", "only forbidden verdicts", a.allowedFilter,
               false),
          {"--disagree", "MODEL_A MODEL_B",
           "list the tests the two models decide differently",
           "two of " + models,
           [&a](const Values &v) {
               const auto ma = model::modelFromName(v[0]);
               const auto mb = model::modelFromName(v[1]);
               if (ma && mb)
                   a.disagree = {{*ma, *mb}};
               return ma && mb;
           }},
          json},
         cmdCampaignStatus},
        {"campaign compact", "INPUT...",
         "merge stores into one deduped log; an existing output must be a "
         "store",
         {file("--output", "FILE", "the merged store", a.output, true)},
         cmdCampaignCompact},
        {"model list", "", "list the shipped cat models", {}, cmdModelList},
        {"model show", "<name|file>...", "print a cat model's source",
         {flag("--plan",
               "print the compiled plan instead: strata, constant slots and "
               "fused axiom passes",
               a.plan, true)},
         cmdModelShow},
        {"model check", "<name|file>...",
         "validate a cat model and cross-check its verdicts on the built-in "
         "tests",
         {}, cmdModelCheck},
        {"model lint", "<name|file>...",
         "lint cat models (unused/shadowed definitions, empty relations, "
         "vacuous/redundant axioms)",
         {}, cmdModelLint},
    };
}

/** @p option as the synopsis spells it: its name and placeholder. */
std::string
spelled(const Option &option)
{
    return option.value.empty() ? option.name
                                : option.name + " " + option.value;
}

/**
 * @p left, then @p right word-wrapped into a column from 28 to 79 (on
 * the next line when @p left reaches into the column).
 */
std::string
columns(const std::string &left, const std::string &right)
{
    constexpr size_t Column = 28, Width = 79;
    std::string out = left, word;
    size_t line = left.size() + 2 > Column ? Width : left.size();
    std::istringstream words(right);
    while (words >> word) {
        if (line > Column && line + 1 + word.size() > Width) {
            out += "\n";
            line = 0;
        }
        out += std::string(line < Column ? Column - line : 1, ' ') + word;
        line = std::max(line, Column - 1) + 1 + word.size();
    }
    return out + "\n";
}

int
usage()
{
    std::string out = "usage: gam-litmus <command> [options]\n\n"
                      "commands:\n";
    Args unused;
    for (const Command &cmd : commands(unused)) {
        std::string synopsis = "  " + cmd.path;
        for (const Option &option : cmd.options)
            if (option.required)
                synopsis += " " + spelled(option);
        if (!cmd.operands.empty())
            synopsis += " " + cmd.operands;
        out += columns(synopsis, cmd.summary);
        for (const Option &option : cmd.options)
            if (!option.required)
                out += columns("      [" + spelled(option) + "]",
                               option.help);
    }
    std::fputs(out.c_str(), stderr);
    return 2;
}

/**
 * Parse @p argc words of @p argv against @p cmd's options into
 * @p args.  False, after one stderr line, on an unknown option, a
 * missing or unaccepted value, or a missing required option or
 * operand.
 */
bool
parseArgs(const Command &cmd, int argc, char **argv, Args &args)
{
    auto fail = [](const std::string &line) {
        std::fprintf(stderr, "gam-litmus: %s\n", line.c_str());
        return false;
    };
    std::vector<const Option *> missing;
    for (const Option &option : cmd.options)
        if (option.required)
            missing.push_back(&option);
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            if (cmd.operands.empty())
                return fail(cmd.path + " takes no operands, got '" + arg
                            + "'");
            args.operands.push_back(arg);
            continue;
        }
        const auto option =
            std::find_if(cmd.options.begin(), cmd.options.end(),
                         [&](const Option &o) { return o.name == arg; });
        if (option == cmd.options.end())
            return fail("unknown " + cmd.path + " option '" + arg + "'");
        const int arity = option->value.empty()
            ? 0
            : 1 + int(std::count(option->value.begin(),
                                 option->value.end(), ' '));
        if (argc - 1 - i < arity)
            return fail(arg + " needs " + option->value);
        const Values values(argv + i + 1, argv + i + 1 + arity);
        i += arity;
        if (!option->set(values)) {
            std::string line = arg + " wants " + option->accepts + ", got '";
            for (size_t k = 0; k < values.size(); ++k)
                line += (k ? " " : "") + values[k];
            return fail(line + "'");
        }
        std::erase(missing, &*option);
    }
    if (!missing.empty())
        return fail(cmd.path + " needs " + spelled(*missing.front()));
    if (!cmd.operands.empty() && args.operands.empty())
        return fail(cmd.path + " needs " + cmd.operands);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    // A command path is one word, or a group and its subcommand.
    const std::string group = argv[1];
    const std::string sub = argc > 2 ? group + " " + argv[2] : group;
    std::string subcommands;
    Args args;
    for (const Command &cmd : commands(args)) {
        if (cmd.path == group || cmd.path == sub) {
            const int words = cmd.path == group ? 2 : 3;
            if (!parseArgs(cmd, argc - words, argv + words, args))
                return 2;
            return cmd.run(args);
        }
        if (cmd.path.rfind(group + " ", 0) == 0)
            subcommands += (subcommands.empty() ? "" : ", ")
                + cmd.path.substr(group.size() + 1);
    }
    if (!subcommands.empty()) {
        std::fprintf(stderr, "gam-litmus: %s wants one of %s, got '%s'\n",
                     group.c_str(), subcommands.c_str(),
                     argc > 2 ? argv[2] : "");
        return 2;
    }
    std::fprintf(stderr,
                 "gam-litmus: unknown command '%s' (see gam-litmus without "
                 "arguments)\n",
                 group.c_str());
    return 2;
}
