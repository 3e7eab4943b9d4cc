/**
 * @file
 * The pipeline benchmark's entry point.
 *
 *   pipeline_bench --workload {query,campaign-cold,campaign-warm,all}
 *                  --seed N --seconds S --trace {0,1} [--workdir DIR]
 *
 * --trace 0 measures the end-to-end metrics with no instrumentation;
 * --trace 1 is the separate traced run that splits the workload's time
 * across the src/ modules.  Each workload prints a human-readable table
 * and then one JSON line {"correct", "attempted", "failed", "metrics"};
 * the last line of standard output is always that JSON object (for
 * `all`, the three workloads merged under "<workload>." prefixes).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "bench.hh"

namespace pipebench
{

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void
Report::note(const std::string &line)
{
    notes.push_back(line);
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto tv = [](const timeval &t) {
        return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t rank = size_t(std::ceil(p / 100.0 * double(values.size())));
    return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double
share(double part, double whole)
{
    return whole != 0.0 ? part / whole : 0.0;
}

void
LayerSpans::charge(const std::string &layer, double seconds)
{
    auto &[total, count] = totals[layer];
    total += seconds;
    ++count;
}

double
LayerSpans::seconds(const std::string &layer) const
{
    auto it = totals.find(layer);
    return it == totals.end() ? 0.0 : it->second.first;
}

uint64_t
LayerSpans::calls(const std::string &layer) const
{
    auto it = totals.find(layer);
    return it == totals.end() ? 0 : it->second.second;
}

double
LayerSpans::meanUs(const std::string &layer) const
{
    return share(seconds(layer) * 1e6, double(calls(layer)));
}

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list = {
        {"campaign.self_s", "s"},
        {"campaign.enumerate_s", "s"},
        {"campaign.classes", "count"},
        {"campaign.symmetry_duplicates", "count"},
        {"campaign.store.open_s", "s"},
        {"campaign.store.load_us", "us"},
        {"campaign.store.hit_rate", "share"},
        {"campaign.store.append_s", "s"},
        {"campaign.store.writes", "count"},
        {"campaign.worker_busy_share", "share"},
        {"litmus.self_s", "s"},
        {"litmus.generate_s", "s"},
        {"litmus.lower_s", "s"},
        {"litmus.fingerprint_s", "s"},
        {"harness.self_s", "s"},
        {"harness.cache.lookup_us", "us"},
        {"harness.cache.hits", "count"},
        {"harness.cache.hit_rate", "share"},
        {"harness.batch.fused_groups", "count"},
        {"harness.batch.fused_queries", "count"},
        {"harness.batch.fan_in", "queries/group"},
        {"analysis.self_s", "s"},
        {"analysis.prescreen_us", "us"},
        {"analysis.prescreen.calls", "count"},
        {"analysis.prescreen.sc_delegate", "count"},
        {"analysis.prescreen.useful_share", "share"},
        {"axiomatic.enumerate_s", "s"},
        {"axiomatic.runs", "count"},
        {"axiomatic.rf_candidates", "count"},
        {"axiomatic.co_candidates", "count"},
        {"axiomatic.partials_pruned", "count"},
        {"axiomatic.value_consistent_share", "share"},
        {"cat.self_s", "s"},
        {"cat.decide_us", "us"},
        {"cat.compile_us", "us"},
        {"cat.compiles", "count"},
        {"operational.self_s", "s"},
        {"operational.explore_us", "us"},
        {"operational.states_visited", "count"},
        {"obs.traced_wall_s", "s"},
        {"obs.traced_cpu_s", "s"},
        {"obs.unattributed_s", "s"},
        {"obs.trace_overhead", "ratio"},
    };
    return list;
}

std::map<std::string, double>
emptyLayerValues()
{
    std::map<std::string, double> values;
    for (const auto &[name, unit] : layerMetrics())
        values[name] = 0.0;
    return values;
}

void
addLayerMetrics(Report &report, const std::map<std::string, double> &values)
{
    for (const auto &[name, unit] : layerMetrics())
        report.add(name, values.at(name), unit);
}

void
addPassLayers(std::map<std::string, double> &out, const TracedPass &pass,
              std::initializer_list<const char *> selfKeys)
{
    const gam::obs::MetricSnapshot &delta = pass.delta;
    out["analysis.prescreen.calls"] = double(pass.prescreenCalls);
    out["analysis.prescreen.sc_delegate"] =
        double(delta.counter("decide.prescreen.sc_delegate"));
    out["analysis.prescreen.useful_share"] =
        share(double(delta.counter("decide.prescreen.value_cover")
                     + delta.counter("decide.prescreen.sc_delegate")),
              double(pass.prescreenCalls));
    out["axiomatic.runs"] = double(delta.counter("enum.runs"));
    out["axiomatic.rf_candidates"] =
        double(delta.counter("enum.rf_candidates"));
    out["axiomatic.co_candidates"] =
        double(delta.counter("enum.co_candidates"));
    out["axiomatic.partials_pruned"] =
        double(delta.counter("enum.partials_pruned"));
    out["axiomatic.value_consistent_share"] =
        share(double(delta.counter("enum.value_consistent")),
              double(delta.counter("enum.rf_candidates")));

    double attributed = 0.0;
    for (const char *layer : selfKeys)
        attributed += out.at(layer);
    out["obs.traced_wall_s"] = pass.wall;
    out["obs.traced_cpu_s"] = pass.cpu;
    out["obs.unattributed_s"] = pass.cpu - attributed;
    out["obs.trace_overhead"] = pass.overhead;
}

} // namespace pipebench

namespace
{

using namespace pipebench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pipeline_bench: %s\n"
                 "usage: pipeline_bench --workload "
                 "{query,campaign-cold,campaign-warm,all} --seed N "
                 "--seconds S --trace {0,1} [--workdir DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, &end);
            if (!(args.seconds > 0 && args.seconds <= 3600))
                usage("--seconds must be in (0, 3600]");
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") && std::strcmp(value, "1"))
                usage("--trace takes 0 or 1");
            args.trace = value[0] == '1';
        } else if (flag == "--workdir") {
            args.workdir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end)
            usage(("bad number for " + flag).c_str());
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

std::string
jsonLine(const Report &r)
{
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": "
            + value + ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}}";
}

void
printTable(const Report &r, const Args &args)
{
    std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
                r.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    for (const std::string &line : r.notes)
        std::printf("  %s\n", line.c_str());
    for (const Metric &m : r.metrics)
        std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-36s %16.6f share (%llu of %llu decisions)\n",
                "failed_share",
                share(double(r.failed), double(r.attempted)),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    std::printf("  correct: %s\n", r.correct ? "yes" : "NO");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::vector<std::pair<std::string, std::function<Report(
                                                 const Args &)>>>
        workloads = {{"query", runQuery},
                     {"campaign-cold", runCampaignCold},
                     {"campaign-warm", runCampaignWarm}};

    std::vector<Report> reports;
    for (const auto &[name, run] : workloads) {
        if (args.workload != name && args.workload != "all")
            continue;
        Report r = run(args);
        r.workload = name;
        r.correct = r.correct && r.failed == 0;
        printTable(r, args);
        reports.push_back(std::move(r));
        std::fflush(stdout);
    }
    if (reports.empty())
        usage(("unknown workload " + args.workload).c_str());

    if (reports.size() == 1) {
        std::printf("%s\n", jsonLine(reports[0]).c_str());
        return 0;
    }
    Report merged;
    for (const Report &r : reports) {
        std::printf("%s\n", jsonLine(r).c_str());
        merged.correct = merged.correct && r.correct;
        merged.attempted += r.attempted;
        merged.failed += r.failed;
        for (const Metric &m : r.metrics)
            merged.metrics.push_back({r.workload + "." + m.name, m.value,
                                      m.unit});
    }
    std::printf("%s\n", jsonLine(merged).c_str());
    return 0;
}
