/**
 * @file
 * Shared pieces of the pipeline benchmark: the per-workload report,
 * timing and resource helpers, and the benchmark's own layer spans.
 *
 * The benchmark never reads the library's trace rings for its layer
 * breakdown: a single-thread length-<=5 campaign overflows them many
 * times over.  It times its own calls into each module's public
 * functions instead (LayerSpans) and reads the library's work counters
 * from a MetricRegistry snapshot delta.
 */

#ifndef PIPEBENCH_BENCH_HH
#define PIPEBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.hh"

namespace pipebench
{

/** Command-line arguments of one run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where store files go; must exist. */
    std::string workdir = ".";
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** One workload's result: the JSON summary line plus human notes. */
struct Report
{
    std::string workload;
    bool correct = true;
    uint64_t attempted = 0;
    /** Incomplete decisions + verdicts disagreeing with the reference. */
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;

    void add(const std::string &name, double value, const std::string &unit);
    void note(const std::string &line);
};

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);
/** User + system CPU seconds of this process so far. */
double cpuSeconds();
/** Peak resident set size of this process so far, in MB. */
double peakRssMb();
/** Nearest-rank percentile (@p p in (0, 100]) of @p values. */
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
/** @p part / @p whole, 0 when @p whole is 0. */
double share(double part, double whole);

/**
 * Wall time and call count accumulated per layer name: the benchmark's
 * own spans around its calls into the library, kept in memory.
 */
class LayerSpans
{
  public:
    /** Run @p fn and charge its wall time to @p layer. */
    template <class F>
    auto
    time(const std::string &layer, F &&fn)
    {
        struct Stop
        {
            LayerSpans &spans;
            const std::string &layer;
            Clock::time_point start;
            ~Stop() { spans.charge(layer, secondsSince(start)); }
        } stop{*this, layer, Clock::now()};
        return fn();
    }

    void charge(const std::string &layer, double seconds);
    double seconds(const std::string &layer) const;
    uint64_t calls(const std::string &layer) const;
    /** Mean microseconds per call, 0 for an unused layer. */
    double meanUs(const std::string &layer) const;

  private:
    std::map<std::string, std::pair<double, uint64_t>> totals;
};

/** The workloads; each returns its end-to-end or (traced) per-layer
 *  report. */
Report runQuery(const Args &args);
Report runCampaignCold(const Args &args);
Report runCampaignWarm(const Args &args);

/**
 * Every per-layer metric name and unit, in output order.  A traced run
 * reports each of them on every workload; a layer a workload never
 * calls reads 0.
 */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

/** Zero-filled per-layer values, keyed by layerMetrics() names. */
std::map<std::string, double> emptyLayerValues();

/** Append @p values to @p report in layerMetrics() order. */
void addLayerMetrics(Report &report,
                     const std::map<std::string, double> &values);

/** What every workload's traced run measured around one traced pass. */
struct TracedPass
{
    /** The registry delta over the pass. */
    gam::obs::MetricSnapshot delta;
    /** Queries that reached the prescreen (missed cache and store). */
    uint64_t prescreenCalls = 0;
    double wall = 0.0;
    double cpu = 0.0;
    /** Traced wall time over untraced wall time, over all passes. */
    double overhead = 0.0;
};

/**
 * Fill the per-layer metrics every workload derives the same way: the
 * axiomatic.* work counts and the prescreen's sc_delegate and
 * useful_share from the registry delta, and the obs.* figures.
 * @p selfKeys name the module self times, already in @p out, whose sum
 * is the attributed time.
 */
void addPassLayers(std::map<std::string, double> &out, const TracedPass &pass,
                   std::initializer_list<const char *> selfKeys);

} // namespace pipebench

#endif // PIPEBENCH_BENCH_HH
