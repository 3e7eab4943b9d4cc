/**
 * @file
 * Reproduces every litmus-test verdict printed in the paper
 * (Figures 2, 5, 13a-d and 14a-d) plus the classical suite, under both
 * the axiomatic checker and the operational explorer, and checks each
 * against the paper's claim.  Also times whole-suite exploration:
 * serial vs. thread-pool batch runner, and string-set vs. interned
 * visited states.
 */

#include <chrono>
#include <cstdio>

#include "base/thread_pool.hh"
#include "harness/litmus_runner.hh"
#include "litmus/suite.hh"
#include "operational/explorer.hh"
#include "operational/gam_machine.hh"

namespace
{

using namespace gam;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
}

/** Time one full-suite sweep of a verdict-matrix runner. */
template <typename Fn>
double
timeSweep(const Fn &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return secondsSince(start);
}

void
timingReport()
{
    std::vector<litmus::LitmusTest> all = litmus::paperSuite();
    const auto &classics = litmus::classicSuite();
    all.insert(all.end(), classics.begin(), classics.end());

    std::printf("--- whole-suite timing (%zu tests) ---\n", all.size());

    const double string_set = timeSweep([&] {
        for (const auto &t : all)
            operational::exploreAllStringSet(
                operational::GamMachine(t, {}));
    });
    std::printf("  string-set explorer (seed baseline): %7.3f s\n",
                string_set);

    const double interned = timeSweep([&] {
        for (const auto &t : all)
            operational::exploreAll(operational::GamMachine(t, {}));
    });
    std::printf("  interned explorer:                   %7.3f s "
                "(%.2fx)\n", interned, string_set / interned);

    // Time real engine work: the decision cache would otherwise serve
    // rows warmed by the verdict sections above (bench_decision_cache
    // measures the cache itself).
    harness::MatrixOptions uncached;
    uncached.cache = nullptr;

    uncached.poolThreads = 1;
    const double serial_matrix =
        timeSweep([&] { harness::runPaperMatrix(all, uncached); });
    std::printf("  verdict matrix, serial:              %7.3f s\n",
                serial_matrix);

    const unsigned threads = ThreadPool::defaultThreadCount();
    uncached.poolThreads = threads;
    const double parallel_matrix = timeSweep(
        [&] { harness::runPaperMatrix(all, uncached); });
    std::printf("  verdict matrix, %2u-thread pool:      %7.3f s "
                "(%.2fx)\n", threads, parallel_matrix,
                serial_matrix / parallel_matrix);
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("==============================================\n");
    std::printf("Litmus-test verdicts (paper Figures 2, 5, 13, 14)\n");
    std::printf("==============================================\n\n");

    std::printf("--- paper suite ---\n");
    auto paper = harness::runPaperMatrix(litmus::paperSuite());
    std::printf("%s\n", harness::formatLitmusMatrix(paper).c_str());

    std::printf("--- classical suite ---\n");
    auto classics = harness::runPaperMatrix(litmus::classicSuite());
    std::printf("%s\n", harness::formatLitmusMatrix(classics).c_str());

    timingReport();

    int mismatches = 0;
    for (const auto &v : paper)
        mismatches += !v.matchesPaper();
    for (const auto &v : classics)
        mismatches += !v.matchesPaper();
    return mismatches == 0 ? 0 : 1;
}
