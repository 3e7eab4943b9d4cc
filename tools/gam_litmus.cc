/**
 * @file
 * gam-litmus: the litmus-test command line frontend.
 *
 *   gam-litmus list
 *       List the built-in suites (name, paper reference, description).
 *
 *   gam-litmus run <test|file.litmus>... [--model M]...
 *                  [--engine {axiomatic,operational,auto}]
 *                  [--threads N] [--budget M] [--stats] [--json]
 *                  [--trace FILE]
 *       Decide each test and print the verdict matrix.  By default
 *       every engine supporting the model runs; --engine restricts to
 *       one engine or lets the registry pick (auto).  --threads sets
 *       the decision pool width (MatrixOptions::poolThreads); --budget
 *       sets the explorer state budget (RunOptions::stateBudget);
 *       --stats appends decision-cache hit/miss counts; --json prints
 *       the run's metrics-registry delta (gam-metrics-v1 JSON) instead
 *       of the text output; --trace writes a Chrome trace_event JSON
 *       of every decide() pipeline span.
 *       Arguments naming a file (anything with a '.' or '/') are
 *       parsed from the litmus text format; anything else must be a
 *       built-in test name.  Exits 1 on a verdict mismatching a
 *       recorded expectation, 2 on bad input.
 *
 *   gam-litmus print <test|file.litmus>...
 *       Re-emit tests in the canonical litmus text form (exports the
 *       built-in suites to text; normalises hand-written files).
 *
 *   gam-litmus gen [--tests N] [--seed S] [--out DIR] [--no-verdicts]
 *                  [--four-thread]
 *       Emit generated tests as litmus documents (stdout, or one file
 *       per test under DIR), annotated with axiomatically-derived
 *       expect verdicts unless --no-verdicts.  --four-thread replaces
 *       the random stream with the named IRIW/WRC+/W+RWC cycle
 *       families (litmus::fourThreadSuite), annotated for the four
 *       models the pinned corpus records.
 *
 *   gam-litmus fuzz [--tests N] [--seed S] [--threads N]
 *                   [--max-states M] [--no-shrink] [--engine E]
 *       Differential-fuzz the operational explorer against a spec
 *       engine (axiomatic by default, or the cat engine over the
 *       shipped model files) on generated tests.  Exits 1 if any
 *       divergence was found.
 *
 *   gam-litmus campaign run [--max-cycle-len N] [--min-cycle-len N]
 *                           [--models A,B,..] [--engines A,B,..]
 *                           [--canonical rotation|full]
 *                           [--threads N] [--limit N]
 *                           [--store FILE] [--verify N]
 *                           [--min-store-hit-rate P] [--quiet]
 *                           [--no-fences] [--no-deps] [--no-rmws]
 *                           [--metrics FILE] [--trace FILE]
 *       Decide the exhaustive canonical test universe up to the given
 *       cycle length under every requested (model, engine) pair, with
 *       batched decides work-stolen over a thread pool.  --canonical
 *       full shrinks the universe by the symmetry quotient
 *       (campaign/symmetry.hh) before deciding.  --store appends
 *       every decision to a crash-safe persistent store consulted
 *       before the engines, so re-running with the same --store
 *       resumes a killed campaign.  A missing store file is created;
 *       one that is not a store is refused, untouched, with exit 2.
 *       --verify N re-decides every Nth decision from scratch and
 *       compares it against the store (exit 1 on any mismatch);
 *       --min-store-hit-rate P exits 1 when fewer than P percent of
 *       decisions were served by the store.  The run's registry delta
 *       is written as gam-metrics-v1 JSON to --metrics
 *       (campaign_metrics.json by default); --trace exports the run's
 *       spans as Chrome trace_event JSON.
 *
 *   gam-litmus campaign status --store FILE [--json]
 *       Summarise a store: records and distinct tests per
 *       (model, engine), plus any torn tail dropped during recovery.
 *       status, query and compact never create a store: a missing
 *       file or one that is not a store exits 2.
 *
 *   gam-litmus campaign query --store FILE [--model M]
 *                             [--allowed|--forbidden]
 *                             [--disagree MODEL_A MODEL_B]
 *       The status summary restricted to matching records; with
 *       --disagree, the tests both models have persisted verdicts for
 *       that they decide differently.
 *
 *   gam-litmus campaign compact --output FILE INPUT...
 *       Merge store files into one fresh log, deduping by query key
 *       (first input wins) and healing torn tails; records are
 *       written in key order so the output is reproducible.
 *
 *   gam-litmus model list
 *       List the cat models shipped with the library.
 *
 *   gam-litmus model show <name|file.cat> [--plan]
 *       Print a model's source; with --plan, the compiled evaluation
 *       plan instead (cat/compile.hh): stratified definitions,
 *       per-epoch constant slots, and the incremental pass each axiom
 *       lowered to.
 *
 *   gam-litmus model check <name|file.cat>
 *       Parse and statically check a model, then run it over every
 *       built-in litmus test; when the model names a built-in
 *       ModelKind, cross-check each verdict against the hand-coded
 *       axiomatic checker.  Exits 1 on a diagnostic or mismatch.
 *
 *   gam-litmus model lint <name|file.cat>...
 *       Static analysis over the checked AST (analysis/lint.hh):
 *       unused definitions, shadowing, statically-empty relations,
 *       vacuous or redundant axioms, non-productive recursion.  Exits
 *       1 when any model produces a warning (CI lints the shipped
 *       models with exactly this), 2 on unparseable input.
 *
 * Every input error (unknown test, malformed file, bad flag) is
 * reported and turned into a nonzero exit; nothing aborts the process.
 * Unknown --engine/--model values list what is available.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
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

int
usage()
{
    std::fprintf(stderr,
                 "usage: gam-litmus <command> [options]\n"
                 "\n"
                 "commands:\n"
                 "  list                      list built-in tests\n"
                 "  run <test|file>...        decide tests and print "
                 "the verdict matrix\n"
                 "      [--model M]...        SC TSO GAM0 GAM ARM "
                 "Alpha* PerLocSC\n"
                 "      [--engine E]          axiomatic, operational, "
                 "cat or auto (default: all)\n"
                 "      [--threads N]         worker threads (0 = "
                 "hardware)\n"
                 "      [--budget M]          explorer visited-state "
                 "budget\n"
                 "      [--stats]             print decision-cache, "
                 "prescreen and\n"
                 "                            enumeration counters\n"
                 "      [--json]              print this run's metrics "
                 "registry delta as\n"
                 "                            gam-metrics-v1 JSON "
                 "instead of text output\n"
                 "      [--trace FILE]        write a Chrome "
                 "trace_event JSON of the run\n"
                 "      [--no-prescreen]      disable the static "
                 "pre-screen in decide()\n"
                 "      [--no-cat-compile]    run cat queries through "
                 "the interpreting\n"
                 "                            evaluator instead of the "
                 "compiled plan\n"
                 "  print <test|file>...      re-emit tests in "
                 "canonical text form\n"
                 "  gen [--tests N] [--seed S] [--out DIR] "
                 "[--no-verdicts] [--four-thread]\n"
                 "                            emit generated litmus "
                 "documents (--four-thread:\n"
                 "                            the named IRIW/WRC+/W+RWC "
                 "cycle families)\n"
                 "  fuzz [--tests N] [--seed S] [--threads N]\n"
                 "       [--max-states M] [--no-shrink] [--engine E]\n"
                 "                            differential-fuzz a spec "
                 "engine (axiomatic or\n"
                 "                            cat) against the "
                 "operational explorer\n"
                 "  campaign run              decide the exhaustive "
                 "canonical test universe\n"
                 "      [--max-cycle-len N]   cycle length bound "
                 "(default 6)\n"
                 "      [--min-cycle-len N]   shortest cycle length "
                 "(default 3)\n"
                 "      [--canonical rotation|full]\n"
                 "                            symmetry quotient of the "
                 "universe\n"
                 "                            (default rotation)\n"
                 "      [--models A,B,..]     default SC,TSO,GAM0,GAM\n"
                 "      [--engines A,B,..]    default axiomatic\n"
                 "      [--threads N] [--limit N]\n"
                 "      [--no-fences] [--no-deps] [--no-rmws]\n"
                 "                            leave fences, "
                 "dependencies or RMWs\n"
                 "                            out of the edge "
                 "vocabulary\n"
                 "      [--store FILE]        persistent decision "
                 "store (append-log);\n"
                 "                            re-run with the same "
                 "store to resume\n"
                 "      [--verify N]          re-decide every Nth "
                 "decision from scratch\n"
                 "      [--min-store-hit-rate P]  exit 1 below P%% "
                 "store hits\n"
                 "      [--quiet]             no progress lines\n"
                 "      [--metrics FILE]      write the run's registry "
                 "delta as JSON\n"
                 "                            (default "
                 "campaign_metrics.json)\n"
                 "      [--trace FILE]        write a Chrome "
                 "trace_event JSON of the run\n"
                 "  campaign status --store FILE [--json]\n"
                 "                            summarise a decision "
                 "store\n"
                 "  campaign query --store FILE [--model M] "
                 "[--allowed|--forbidden]\n"
                 "                            summarise matching "
                 "records\n"
                 "      [--disagree MODEL_A MODEL_B]\n"
                 "                            list the tests the two "
                 "models decide\n"
                 "                            differently\n"
                 "  campaign compact --output FILE INPUT...\n"
                 "                            merge stores into one "
                 "deduped log\n"
                 "  model list                list the shipped cat "
                 "models\n"
                 "  model show <name|file>    print a cat model's "
                 "source\n"
                 "      [--plan]              print the compiled plan "
                 "instead: strata,\n"
                 "                            constant slots and fused "
                 "axiom passes\n"
                 "  model check <name|file>   validate a cat model "
                 "and cross-check its\n"
                 "                            verdicts on the "
                 "built-in tests\n"
                 "  model lint <name|file>... lint cat models "
                 "(unused/shadowed definitions,\n"
                 "                            empty relations, vacuous/"
                 "redundant axioms)\n");
    return 2;
}

/** Print every engine name a frontend flag accepts. */
void
listEngines(bool include_auto = true)
{
    std::fprintf(stderr, "available engines:\n");
    for (model::Engine engine : model::allEngines)
        std::fprintf(stderr, "  %s\n",
                     model::engineName(engine).c_str());
    if (include_auto)
        std::fprintf(stderr, "  auto\n");
}

/** Print every memory-model name --model accepts. */
void
listModels()
{
    std::fprintf(stderr, "available models:\n");
    for (ModelKind kind : model::allModelKinds)
        std::fprintf(stderr, "  %s\n",
                     model::modelName(kind).c_str());
}

/** Print every shipped cat model name. */
void
listCatModels()
{
    std::fprintf(stderr, "shipped cat models:\n");
    for (const cat::CatModel *m : cat::builtinCatModels())
        std::fprintf(stderr, "  %s\n", m->name.c_str());
}

std::optional<uint64_t>
parseCount(const char *arg)
{
    uint64_t value = 0;
    std::istringstream is(arg);
    is >> value;
    if (!is || !is.eof())
        return std::nullopt;
    return value;
}

/** Is @p arg one of @p options? */
bool
oneOf(const std::string &arg, std::initializer_list<const char *> options)
{
    return std::any_of(options.begin(), options.end(),
                       [&](const char *option) { return arg == option; });
}

/** Next flag value or nullptr (with a message) when it is missing. */
const char *
flagValue(int argc, char **argv, int &i, const char *flag)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "gam-litmus: %s needs a value\n", flag);
        return nullptr;
    }
    return argv[++i];
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

int
cmdList()
{
    for (const auto &t : litmus::allTests()) {
        std::printf("  %-20s %-12s %s\n", t.name.c_str(),
                    t.paperRef.c_str(), t.description.c_str());
    }
    return 0;
}

/** Load one `run` argument: a built-in name or a .litmus file. */
std::optional<litmus::LitmusTest>
loadTest(const std::string &arg)
{
    const bool is_file =
        arg.find('.') != std::string::npos
        || arg.find('/') != std::string::npos;
    if (!is_file) {
        if (const litmus::LitmusTest *t = litmus::findTest(arg))
            return *t;
        std::fprintf(stderr,
                     "gam-litmus: unknown test '%s'; available tests:\n",
                     arg.c_str());
        for (const auto &t : litmus::allTests())
            std::fprintf(stderr, "  %s\n", t.name.c_str());
        return std::nullopt;
    }

    std::ifstream in(arg);
    if (!in) {
        std::fprintf(stderr, "gam-litmus: cannot open '%s'\n",
                     arg.c_str());
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto parsed = litmus::parseLitmus(text.str());
    if (!parsed) {
        std::fprintf(stderr, "gam-litmus: %s: %s\n", arg.c_str(),
                     parsed.error.toString().c_str());
        return std::nullopt;
    }
    return *std::move(parsed.test);
}

int
cmdRun(int argc, char **argv)
{
    std::vector<litmus::LitmusTest> tests;
    std::vector<ModelKind> models;
    harness::MatrixOptions options;
    bool stats = false;
    bool json = false;
    std::string trace_path;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--model") {
            const char *value = flagValue(argc, argv, i, "--model");
            if (!value)
                return 2;
            auto kind = model::modelFromName(value);
            if (!kind) {
                std::fprintf(stderr, "gam-litmus: unknown model '%s'\n",
                             value);
                listModels();
                return 2;
            }
            models.push_back(*kind);
        } else if (arg == "--engine") {
            const char *value = flagValue(argc, argv, i, "--engine");
            if (!value)
                return 2;
            if (std::string(value) == "auto") {
                options.engine = harness::EngineSelect::Auto;
            } else if (auto engine = model::engineFromName(value)) {
                options.engine = harness::engineSelectOf(*engine);
            } else {
                std::fprintf(stderr, "gam-litmus: unknown engine "
                             "'%s'\n", value);
                listEngines();
                return 2;
            }
        } else if (arg == "--threads" || arg == "--budget") {
            const char *value = flagValue(argc, argv, i, arg.c_str());
            if (!value)
                return 2;
            auto n = parseCount(value);
            if (!n) {
                std::fprintf(stderr, "gam-litmus: bad %s value '%s'\n",
                             arg.c_str(), value);
                return 2;
            }
            if (arg == "--threads")
                options.poolThreads = static_cast<unsigned>(*n);
            else
                options.run.stateBudget = *n;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--trace") {
            const char *value = flagValue(argc, argv, i, "--trace");
            if (!value)
                return 2;
            trace_path = value;
        } else if (arg == "--no-prescreen") {
            options.run.prescreen = false;
        } else if (arg == "--no-cat-compile") {
            options.run.catCompile = false;
        } else {
            auto test = loadTest(arg);
            if (!test)
                return 2;
            tests.push_back(*std::move(test));
        }
    }
    if (tests.empty()) {
        std::fprintf(stderr, "gam-litmus: run needs at least one test "
                             "name or .litmus file\n");
        return 2;
    }
    if (models.empty()) {
        models = {ModelKind::SC, ModelKind::TSO, ModelKind::GAM0,
                  ModelKind::GAM, ModelKind::ARM};
    }

    const auto before = harness::globalDecisionCache().stats();
    const obs::MetricSnapshot metrics_before = obs::metrics().snapshot();
    if (!trace_path.empty())
        obs::TraceCollector::instance().enable();
    auto verdicts = harness::runLitmusMatrix(tests, models, options);
    if (!trace_path.empty()) {
        // The matrix pool has drained: the rings are quiescent.
        obs::TraceCollector::instance().disable();
        if (!writeTrace(trace_path))
            return 1;
    }
    if (verdicts.empty()) {
        // Everything was skipped (e.g. --model PerLocSC --engine
        // operational); an empty matrix must not read as success.
        std::fprintf(stderr, "gam-litmus: no decidable (model, engine) "
                             "combination for the given tests\n");
        return 2;
    }
    if (json) {
        // The machine-readable twin of the text output: exactly this
        // run's registry delta in the gam-metrics-v1 schema.
        std::printf("%s", obs::metrics()
                              .snapshot()
                              .delta(metrics_before)
                              .toJson()
                              .c_str());
        for (const auto &v : verdicts)
            if (!v.matchesPaper())
                return 1;
        return 0;
    }
    std::printf("%s", harness::formatLitmusMatrix(verdicts).c_str());
    if (stats) {
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
cmdPrint(int argc, char **argv)
{
    bool first = true;
    for (int i = 0; i < argc; ++i) {
        auto test = loadTest(argv[i]);
        if (!test)
            return 2;
        if (!first)
            std::printf("\n");
        first = false;
        std::printf("%s", litmus::printLitmus(*test).c_str());
    }
    if (first) {
        std::fprintf(stderr, "gam-litmus: print needs at least one "
                             "test name or .litmus file\n");
        return 2;
    }
    return 0;
}

int
cmdGen(int argc, char **argv)
{
    uint64_t tests = 10, seed = 1;
    bool verdicts = true;
    bool four_thread = false;
    bool stream_flags = false;
    std::string out_dir;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = nullptr;
        if (arg == "--four-thread") {
            four_thread = true;
        } else if (arg == "--tests" || arg == "--seed") {
            value = flagValue(argc, argv, i, arg.c_str());
            if (!value)
                return 2;
            auto n = parseCount(value);
            if (!n) {
                std::fprintf(stderr, "gam-litmus: bad %s value '%s'\n",
                             arg.c_str(), value);
                return 2;
            }
            (arg == "--tests" ? tests : seed) = *n;
            stream_flags = true;
        } else if (arg == "--out") {
            value = flagValue(argc, argv, i, "--out");
            if (!value)
                return 2;
            out_dir = value;
        } else if (arg == "--no-verdicts") {
            verdicts = false;
        } else {
            std::fprintf(stderr, "gam-litmus: unknown gen option "
                                 "'%s'\n", arg.c_str());
            return 2;
        }
    }

    if (four_thread && stream_flags) {
        std::fprintf(stderr,
                     "gam-litmus: --four-thread emits the fixed named "
                     "families; --tests/--seed do not apply\n");
        return 2;
    }

    // Random-stream tests are annotated against every model; the
    // named four-thread families against the four models their corpus
    // copies pin (the satellite IRIW/WRC+/W+RWC verdicts).
    const std::vector<ModelKind> models = four_thread
        ? std::vector<ModelKind>{ModelKind::SC, ModelKind::TSO,
                                 ModelKind::GAM0, ModelKind::GAM}
        : std::vector<ModelKind>{ModelKind::SC, ModelKind::TSO,
                                 ModelKind::GAM0, ModelKind::GAM,
                                 ModelKind::ARM};

    std::vector<litmus::LitmusTest> emitted;
    if (four_thread) {
        emitted = litmus::fourThreadSuite();
    } else {
        for (uint64_t i = 0; i < tests; ++i)
            emitted.push_back(litmus::generateTest(seed, i));
    }

    bool first = true;
    for (litmus::LitmusTest &test : emitted) {
        if (verdicts)
            harness::annotateExpected(test, models);
        const std::string text = litmus::printLitmus(test);
        if (out_dir.empty()) {
            if (!first)
                std::printf("\n");
            first = false;
            std::printf("%s", text.c_str());
            continue;
        }
        const std::string path = out_dir + "/" + test.name + ".litmus";
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "gam-litmus: cannot write '%s'\n",
                         path.c_str());
            return 2;
        }
        out << text;
    }
    return 0;
}

int
cmdFuzz(int argc, char **argv)
{
    harness::FuzzOptions options;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--no-shrink") {
            options.shrink = false;
            continue;
        }
        if (arg == "--engine") {
            const char *value = flagValue(argc, argv, i, "--engine");
            if (!value)
                return 2;
            auto engine = model::engineFromName(value);
            if (!engine || *engine == model::Engine::Operational) {
                std::fprintf(stderr, "gam-litmus: fuzz --engine picks "
                             "the spec side checked against the "
                             "operational explorer; '%s' is not one\n",
                             value);
                std::fprintf(stderr, "available spec engines:\n");
                for (model::Engine spec : model::allEngines) {
                    if (spec != model::Engine::Operational) {
                        std::fprintf(stderr, "  %s\n",
                                     model::engineName(spec).c_str());
                    }
                }
                return 2;
            }
            options.spec = *engine;
            continue;
        }
        if (arg != "--tests" && arg != "--seed" && arg != "--threads"
            && arg != "--max-states") {
            std::fprintf(stderr, "gam-litmus: unknown fuzz option "
                                 "'%s'\n", arg.c_str());
            return 2;
        }
        const char *value = flagValue(argc, argv, i, arg.c_str());
        if (!value)
            return 2;
        auto n = parseCount(value);
        if (!n) {
            std::fprintf(stderr, "gam-litmus: bad %s value '%s'\n",
                         arg.c_str(), value);
            return 2;
        }
        if (arg == "--tests")
            options.tests = *n;
        else if (arg == "--seed")
            options.seed = *n;
        else if (arg == "--threads")
            options.threads = static_cast<unsigned>(*n);
        else
            options.maxStates = *n;
    }

    harness::FuzzReport report = harness::fuzzDifferential(options);
    std::printf("%s", report.toString().c_str());
    return report.ok() ? 0 : 1;
}

/**
 * Load a cat model: a shipped name or (anything with a '.' or '/') a
 * file parsed from source.  Diagnoses failures and lists the shipped
 * models on an unknown name.  Returns nullptr on failure; shipped
 * models alias the library's registry (no-op deleter).
 */
std::shared_ptr<const cat::CatModel>
loadCatModel(const std::string &arg)
{
    const bool is_file = arg.find('.') != std::string::npos
        || arg.find('/') != std::string::npos;
    if (!is_file) {
        if (const cat::CatModel *m = cat::findBuiltinCatModel(arg)) {
            return std::shared_ptr<const cat::CatModel>(
                m, [](const cat::CatModel *) {});
        }
        std::fprintf(stderr, "gam-litmus: unknown cat model '%s'\n",
                     arg.c_str());
        listCatModels();
        return nullptr;
    }
    std::ifstream in(arg);
    if (!in) {
        std::fprintf(stderr, "gam-litmus: cannot open '%s'\n",
                     arg.c_str());
        return nullptr;
    }
    std::ostringstream text;
    text << in.rdbuf();
    // Default the model name to the file stem.
    std::string stem = arg;
    if (auto slash = stem.find_last_of('/'); slash != std::string::npos)
        stem = stem.substr(slash + 1);
    if (auto dot = stem.find_last_of('.'); dot != std::string::npos)
        stem = stem.substr(0, dot);
    cat::CatParseResult parsed = cat::parseCat(text.str(), stem);
    if (!parsed.ok()) {
        std::fprintf(stderr, "gam-litmus: %s: %s\n", arg.c_str(),
                     parsed.error.toString().c_str());
        return nullptr;
    }
    return std::make_shared<cat::CatModel>(std::move(*parsed.model));
}

int
cmdModelList()
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

int
cmdModelShow(const std::string &arg, bool plan)
{
    auto m = loadCatModel(arg);
    if (!m)
        return 2;
    if (plan) {
        // The compiler's own view of the model: what the incremental
        // filter evaluates once per epoch, per push, and at leaves.
        std::printf("%s", cat::compileCatModel(*m)->describe().c_str());
        return 0;
    }
    std::printf("%s", m->source.c_str());
    return 0;
}

int
cmdModelCheck(const std::string &arg)
{
    auto m = loadCatModel(arg);
    if (!m)
        return 2;
    std::printf("model %s: parsed OK (%zu definitions, %zu axioms)\n",
                m->name.c_str(), m->definitionNames.size(),
                m->axiomNames.size());

    // Run every built-in litmus test under the model; when the model
    // names a built-in kind with an axiomatic definition, cross-check
    // verdict-for-verdict against the hand-coded checker.
    const auto kind = cat::catModelKind(*m);
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
        query.catModel = m.get();
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
cmdModelLint(const std::string &arg)
{
    auto m = loadCatModel(arg);
    if (!m)
        return 2;
    const auto diags = analysis::lint(*m);
    for (const auto &d : diags)
        std::printf("%s: %s\n", arg.c_str(), d.toString().c_str());
    bool warned = false;
    for (const auto &d : diags)
        warned |= d.severity == analysis::LintSeverity::Warning;
    if (diags.empty())
        std::printf("%s: clean\n", arg.c_str());
    return warned ? 1 : 0;
}

/** Parse one comma-separated --models value into ModelKinds. */
std::optional<std::vector<ModelKind>>
parseModelList(const char *value)
{
    std::vector<ModelKind> models;
    std::istringstream is(value);
    std::string name;
    while (std::getline(is, name, ',')) {
        auto kind = model::modelFromName(name);
        if (!kind) {
            std::fprintf(stderr, "gam-litmus: unknown model '%s'\n",
                         name.c_str());
            listModels();
            return std::nullopt;
        }
        models.push_back(*kind);
    }
    return models;
}

/** Parse one comma-separated --engines value into Engines. */
std::optional<std::vector<model::Engine>>
parseEngineList(const char *value)
{
    std::vector<model::Engine> engines;
    std::istringstream is(value);
    std::string name;
    while (std::getline(is, name, ',')) {
        auto engine = model::engineFromName(name);
        if (!engine) {
            std::fprintf(stderr, "gam-litmus: unknown engine '%s'\n",
                         name.c_str());
            listEngines(false);
            return std::nullopt;
        }
        engines.push_back(*engine);
    }
    return engines;
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
cmdCampaignRun(int argc, char **argv)
{
    campaign::CampaignOptions options;
    std::string store_path;
    std::string metrics_path = "campaign_metrics.json";
    std::string trace_path;
    double min_store_hit_rate = -1.0;
    bool quiet = false;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quiet") {
            quiet = true;
            continue;
        }
        if (arg == "--no-fences") {
            options.enumerate.fences = false;
            continue;
        }
        if (arg == "--no-deps") {
            options.enumerate.deps = false;
            continue;
        }
        if (arg == "--no-rmws") {
            options.enumerate.rmws = false;
            continue;
        }
        // Every other option takes a value: reject an unknown one
        // before reading the next argument as its value.
        if (!oneOf(arg, {"--canonical", "--models", "--engines",
                         "--store", "--metrics", "--trace",
                         "--min-store-hit-rate", "--max-cycle-len",
                         "--min-cycle-len", "--threads", "--limit",
                         "--verify"})) {
            std::fprintf(stderr,
                         "gam-litmus: unknown campaign run option "
                         "'%s'\n",
                         arg.c_str());
            return 2;
        }
        const char *value = flagValue(argc, argv, i, arg.c_str());
        if (!value)
            return 2;
        if (arg == "--canonical") {
            const std::string form = value;
            if (form == "rotation") {
                options.enumerate.canonical =
                    campaign::CanonicalForm::Rotation;
            } else if (form == "full") {
                options.enumerate.canonical =
                    campaign::CanonicalForm::Full;
            } else {
                std::fprintf(stderr,
                             "gam-litmus: --canonical wants 'rotation' "
                             "or 'full', got '%s'\n",
                             value);
                return 2;
            }
        } else if (arg == "--models") {
            auto models = parseModelList(value);
            if (!models)
                return 2;
            options.models = *std::move(models);
        } else if (arg == "--engines") {
            auto engines = parseEngineList(value);
            if (!engines)
                return 2;
            options.engines = *std::move(engines);
        } else if (arg == "--store") {
            store_path = value;
        } else if (arg == "--metrics") {
            metrics_path = value;
        } else if (arg == "--trace") {
            trace_path = value;
        } else if (arg == "--min-store-hit-rate") {
            char *end = nullptr;
            min_store_hit_rate = std::strtod(value, &end);
            if (end == value || *end != '\0' || min_store_hit_rate < 0
                || min_store_hit_rate > 100) {
                std::fprintf(stderr,
                             "gam-litmus: --min-store-hit-rate wants a "
                             "percentage, got '%s'\n",
                             value);
                return 2;
            }
        } else {
            auto n = parseCount(value);
            if (!n) {
                std::fprintf(stderr, "gam-litmus: bad %s value '%s'\n",
                             arg.c_str(), value);
                return 2;
            }
            if (arg == "--max-cycle-len")
                options.enumerate.maxLen = int(*n);
            else if (arg == "--min-cycle-len")
                options.enumerate.minLen = int(*n);
            else if (arg == "--threads")
                options.threads = unsigned(*n);
            else if (arg == "--limit")
                options.limit = *n;
            else
                options.verifySample = *n; // --verify
        }
    }

    std::unique_ptr<campaign::DecisionStore> store;
    if (!store_path.empty()) {
        std::string error;
        store = campaign::DecisionStore::open(
            store_path, campaign::StoreOpen::Create, &error);
        if (!store) {
            std::fprintf(stderr, "gam-litmus: %s\n", error.c_str());
            return 2;
        }
        const auto s = store->stats();
        std::fprintf(stderr,
                     "store: %llu records recovered from %s (%llu "
                     "torn-tail bytes dropped)\n",
                     (unsigned long long)s.loaded, store_path.c_str(),
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
    if (!trace_path.empty())
        obs::TraceCollector::instance().enable();
    const campaign::CampaignResult result = campaign::runCampaign(
        options, store.get(),
        quiet ? std::function<void(const campaign::CampaignProgress &)>{}
              : progress);
    if (!trace_path.empty()) {
        // runCampaign() has joined its workers.
        obs::TraceCollector::instance().disable();
        if (!writeTrace(trace_path))
            return 1;
    }
    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path, std::ios::trunc);
        out << result.metrics.toJson();
        if (!out.good()) {
            std::fprintf(stderr,
                         "gam-litmus: cannot write metrics '%s'\n",
                         metrics_path.c_str());
            return 1;
        }
        std::fprintf(stderr, "metrics: registry delta written to %s\n",
                     metrics_path.c_str());
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
    if (min_store_hit_rate >= 0.0) {
        const double rate = result.decisions
            ? 100.0 * double(result.storeHits) / double(result.decisions)
            : 0.0;
        if (rate < min_store_hit_rate) {
            std::fprintf(stderr,
                         "gam-litmus: store hit rate %.2f%% below the "
                         "required %.2f%%\n",
                         rate, min_store_hit_rate);
            return 1;
        }
    }
    return 0;
}

int
cmdCampaignStatus(int argc, char **argv, bool query)
{
    std::string store_path;
    std::optional<ModelKind> model_filter;
    std::optional<bool> allowed_filter;
    std::optional<std::pair<ModelKind, ModelKind>> disagree;
    bool json = false;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (query && arg == "--disagree") {
            const char *a = flagValue(argc, argv, i, "--disagree");
            const char *b = a ? flagValue(argc, argv, i, "--disagree")
                              : nullptr;
            if (!a || !b)
                return 2;
            auto ka = model::modelFromName(a);
            auto kb = model::modelFromName(b);
            if (!ka || !kb) {
                std::fprintf(stderr, "gam-litmus: unknown model '%s'\n",
                             !ka ? a : b);
                listModels();
                return 2;
            }
            disagree = {{*ka, *kb}};
            continue;
        }
        if (query && arg == "--allowed") {
            allowed_filter = true;
            continue;
        }
        if (query && arg == "--forbidden") {
            allowed_filter = false;
            continue;
        }
        if (arg == "--json") {
            json = true;
            continue;
        }
        // --store and query's --model take a value: reject anything
        // else before reading the next argument as its value.
        if (arg != "--store" && !(query && arg == "--model")) {
            std::fprintf(stderr,
                         "gam-litmus: unknown campaign %s option '%s'\n",
                         query ? "query" : "status", arg.c_str());
            return 2;
        }
        const char *value = flagValue(argc, argv, i, arg.c_str());
        if (!value)
            return 2;
        if (arg == "--store") {
            store_path = value;
            continue;
        }
        auto kind = model::modelFromName(value);
        if (!kind) {
            std::fprintf(stderr, "gam-litmus: unknown model '%s'\n",
                         value);
            listModels();
            return 2;
        }
        model_filter = *kind;
    }
    if (store_path.empty()) {
        std::fprintf(stderr, "gam-litmus: campaign %s needs --store\n",
                     query ? "query" : "status");
        return 2;
    }
    std::string error;
    const auto opened = campaign::DecisionStore::open(
        store_path, campaign::StoreOpen::Existing, &error);
    if (!opened) {
        std::fprintf(stderr, "gam-litmus: %s\n", error.c_str());
        return 2;
    }
    const campaign::DecisionStore &store = *opened;
    const auto s = store.stats();
    if (disagree) {
        const auto [a, b] = *disagree;
        if (json) {
            // Count-only JSON view: enough for CI gates to pin the
            // GAM-vs-GAM0 disagreement count without parsing text.
            obs::MetricRegistry reg;
            const auto list = campaign::disagreeingTests(store, a, b);
            reg.counter("store.disagree.tests").inc(list.size());
            std::printf("%s", reg.snapshot().toJson().c_str());
            return 0;
        }
        std::printf("%s",
                    campaign::formatDisagreements(store, a, b).c_str());
        return 0;
    }
    if (json) {
        // The machine-readable twin of the text summary: a local
        // registry (not the process-wide one) holding per-(model,
        // engine) record counts, emitted in the gam-metrics-v1 schema.
        // Model names are folded through metricSegment ("Alpha*" ->
        // "alpha_") so every key is a well-formed metric name.
        obs::MetricRegistry reg;
        std::unordered_set<uint64_t> tests;
        uint64_t matched = 0;
        store.forEach([&](const campaign::StoreRecord &rec) {
            if (model_filter && rec.model != *model_filter)
                return;
            if (allowed_filter && rec.allowed != *allowed_filter)
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
    std::printf("%s", campaign::formatStoreSummary(store, model_filter,
                                                   allowed_filter)
                          .c_str());
    if (s.droppedBytes)
        std::printf("recovery: %llu torn-tail bytes dropped at open\n",
                    (unsigned long long)s.droppedBytes);
    return 0;
}

int
cmdCampaignCompact(int argc, char **argv)
{
    std::string output;
    std::vector<std::string> inputs;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--output" || arg == "-o") {
            const char *value = flagValue(argc, argv, i, arg.c_str());
            if (!value)
                return 2;
            output = value;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr,
                         "gam-litmus: unknown campaign compact option "
                         "'%s'\n",
                         arg.c_str());
            return 2;
        } else {
            inputs.push_back(arg);
        }
    }
    if (output.empty() || inputs.empty()) {
        std::fprintf(stderr,
                     "gam-litmus: campaign compact --output FILE "
                     "INPUT...\n");
        return 2;
    }
    std::string error;
    const auto stats = campaign::compactStores(inputs, output, &error);
    if (!stats) {
        std::fprintf(stderr, "gam-litmus: %s\n", error.c_str());
        return 2;
    }
    std::printf("compacted %llu inputs: %llu records scanned, %llu "
                "merged, %llu duplicates dropped -> %s\n",
                (unsigned long long)stats->inputs,
                (unsigned long long)stats->scanned,
                (unsigned long long)stats->merged,
                (unsigned long long)stats->duplicates, output.c_str());
    return 0;
}

int
cmdCampaign(int argc, char **argv)
{
    if (argc < 1) {
        std::fprintf(stderr, "gam-litmus: campaign needs a subcommand "
                             "(run, status, query, compact)\n");
        return 2;
    }
    const std::string sub = argv[0];
    if (sub == "run")
        return cmdCampaignRun(argc - 1, argv + 1);
    if (sub == "status")
        return cmdCampaignStatus(argc - 1, argv + 1, false);
    if (sub == "query")
        return cmdCampaignStatus(argc - 1, argv + 1, true);
    if (sub == "compact")
        return cmdCampaignCompact(argc - 1, argv + 1);
    std::fprintf(stderr, "gam-litmus: unknown campaign subcommand '%s' "
                         "(expected run, status, query or compact)\n",
                 sub.c_str());
    return 2;
}

int
cmdModel(int argc, char **argv)
{
    if (argc < 1) {
        std::fprintf(stderr, "gam-litmus: model needs a subcommand "
                             "(list, show, check, lint)\n");
        return 2;
    }
    const std::string sub = argv[0];
    if (sub == "list")
        return cmdModelList();
    if (sub == "show" || sub == "check" || sub == "lint") {
        bool plan = false;
        std::vector<std::string> names;
        for (int i = 1; i < argc; ++i) {
            if (std::string(argv[i]) == "--plan" && sub == "show")
                plan = true;
            else
                names.push_back(argv[i]);
        }
        if (names.empty()) {
            std::fprintf(stderr, "gam-litmus: model %s needs a model "
                         "name or .cat file\n", sub.c_str());
            listCatModels();
            return 2;
        }
        int rc = 0;
        for (const std::string &name : names) {
            const int one = sub == "show"
                ? cmdModelShow(name, plan)
                : sub == "check" ? cmdModelCheck(name)
                                 : cmdModelLint(name);
            rc = std::max(rc, one);
        }
        return rc;
    }
    std::fprintf(stderr, "gam-litmus: unknown model subcommand '%s' "
                         "(expected list, show, check or lint)\n",
                 sub.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    if (command == "list")
        return cmdList();
    if (command == "run")
        return cmdRun(argc - 2, argv + 2);
    if (command == "print")
        return cmdPrint(argc - 2, argv + 2);
    if (command == "gen")
        return cmdGen(argc - 2, argv + 2);
    if (command == "fuzz")
        return cmdFuzz(argc - 2, argv + 2);
    if (command == "campaign")
        return cmdCampaign(argc - 2, argv + 2);
    if (command == "model")
        return cmdModel(argc - 2, argv + 2);
    std::fprintf(stderr, "gam-litmus: unknown command '%s'\n",
                 command.c_str());
    return usage();
}
