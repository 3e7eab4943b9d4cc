/**
 * @file
 * The avg/max summaries the paper's Tables II and III report.  Every
 * other count and distribution lives in the metric registry
 * (obs/registry.hh).
 */

#ifndef GAM_BASE_STATS_HH
#define GAM_BASE_STATS_HH

#include <vector>

namespace gam
{

/**
 * avg/max summary across a set of per-benchmark observations, the exact
 * shape of the rows in the paper's Tables II and III.
 */
struct Summary
{
    double average = 0.0;
    double maximum = 0.0;

    /** Summarise a vector of per-benchmark values. */
    static Summary of(const std::vector<double> &values);
};

} // namespace gam

#endif // GAM_BASE_STATS_HH
