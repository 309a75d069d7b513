/**
 * @file
 * Order statistics used for every reported number.
 *
 * Reported percentiles are nearest-rank (an observed sample, unlike
 * the library's interpolating adapt::percentile): the q-th percentile
 * of n samples is the ceil(q/100 * n)-th smallest.  A percentile is
 * *supported* when at least kMinTail samples lie strictly beyond that
 * rank, so p99 needs n >= 1000 and p50 needs n >= 20.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/stats.hh"

namespace perfbench
{

constexpr int64_t kMinTail = 10;

/** 1-based nearest rank of percentile @p q (0 < q <= 100) over @p n. */
inline int64_t
percentileRank(int64_t n, double q)
{
    const auto rank = static_cast<int64_t>(
        std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<int64_t>(rank, 1, n);
}

/** Samples strictly beyond the rank of percentile @p q. */
inline int64_t
tailBeyond(int64_t n, double q)
{
    return n - percentileRank(n, q);
}

/** True when percentile @p q of @p n samples has >= kMinTail samples
 *  beyond it. */
inline bool
percentileSupported(int64_t n, double q)
{
    return n > 0 && tailBeyond(n, q) >= kMinTail;
}

/** Nearest-rank percentile. @throws std::invalid_argument if empty. */
inline double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        throw std::invalid_argument("percentile of no samples");
    const auto n = static_cast<int64_t>(samples.size());
    const auto k = static_cast<size_t>(percentileRank(n, q) - 1);
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(k),
                     samples.end());
    return samples[k];
}

/** Median (mean of the two middle samples for even counts). */
inline double
median(std::vector<double> samples)
{
    return adapt::percentile(std::move(samples), 50.0);
}

/** @p num / @p den, or 0 when the denominator is 0 (a layer that did
 *  no work on this workload). */
inline double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
