#include "base/stats.hh"

#include <algorithm>

namespace gam
{

Summary
Summary::of(const std::vector<double> &values)
{
    Summary s;
    if (values.empty())
        return s;
    double sum = 0.0;
    double mx = values.front();
    for (double v : values) {
        sum += v;
        mx = std::max(mx, v);
    }
    s.average = sum / values.size();
    s.maximum = mx;
    return s;
}

} // namespace gam
