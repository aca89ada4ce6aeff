/**
 * @file
 * Reporting rules of the benchmark: percentiles and their sample
 * counts, ratios that carry their base, failed-op accounting, and
 * the one-line JSON result. Pure functions, unit-tested in
 * test_perfbench.cc.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace perfbench {

/** Samples a reported percentile must have beyond it. */
constexpr std::uint64_t kTailSamples = 10;

/** Smallest sample count at which quantile @p q has at least
 * kTailSamples samples above it: 20 for p50, 1000 for p99, 10000
 * for p99.9. */
inline std::uint64_t
minSamplesFor(double q)
{
    // The epsilon keeps 10 / (1 - 0.99) = 1000.0000000000009 at 1000.
    return std::uint64_t(
        std::ceil(double(kTailSamples) / (1.0 - q) - 1e-6));
}

/**
 * The quantile actually reportable from @p n samples when @p q is
 * asked for: @p q itself when it has kTailSamples beyond it,
 * otherwise the highest quantile that does (never below the
 * median). 0 when there are no samples.
 */
inline double
reportableQuantile(double q, std::uint64_t n)
{
    if (n == 0)
        return 0.0;
    if (n >= minSamplesFor(q))
        return q;
    double cap = 1.0 - double(kTailSamples) / double(n);
    return std::max(0.5, std::min(q, cap));
}

/** Nearest-rank quantile (rank ceil(q * n), as sim::LatencyHistogram
 * ranks) of @p v, which is sorted in place. 0 when empty. */
inline double
exactQuantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = std::uint64_t(std::ceil(q * double(v.size())));
    rank = std::clamp<std::uint64_t>(rank, 1, v.size());
    return v[rank - 1];
}

/** Lower edge of the sim::LatencyHistogram bucket holding @p v: one
 * bucket per value below 256, 128 per power of two above. */
inline std::uint64_t
bucketFloor(std::uint64_t v)
{
    if (v < 256)
        return v;
    unsigned k = unsigned(std::bit_width(v)) - 1;
    return v & ~((std::uint64_t(1) << (k - 7)) - 1);
}

/**
 * Quantile @p q of @p h (nearest rank, as h.quantile() ranks), placed
 * linearly by rank inside the bucket that holds it instead of at the
 * bucket's upper edge. Edges are shared by every seed, so a raw edge
 * can read the same across runs; the interpolated value moves with
 * the distribution. 0 when empty.
 */
inline double
interpolatedQuantile(const bluedbm::sim::LatencyHistogram &h, double q)
{
    std::uint64_t n = h.count();
    if (n == 0)
        return 0.0;
    auto rank = std::clamp<std::uint64_t>(
        std::uint64_t(std::ceil(q * double(n))), 1, n);
    auto at = [&](std::uint64_t r) {
        return h.quantile((double(r) - 0.5) / double(n));
    };
    const std::uint64_t u = at(rank);
    // at() is non-decreasing in rank: binary-search the bucket's
    // first and last rank.
    std::uint64_t lo = 1, hi = rank;
    while (lo < hi) {
        std::uint64_t mid = lo + (hi - lo) / 2;
        if (at(mid) < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    const std::uint64_t first = lo;
    lo = rank;
    hi = n;
    while (lo < hi) {
        std::uint64_t mid = lo + (hi - lo + 1) / 2;
        if (at(mid) > u)
            hi = mid - 1;
        else
            lo = mid;
    }
    const std::uint64_t last = lo;
    double floor = double(bucketFloor(u));
    return floor + (double(u) - floor) * double(rank - first + 1) /
        double(last - first + 1);
}

/** Median of host-time repetitions (mean of the middle two when
 * even). 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Operation accounting of one measured phase. An op is failed when
 * it was shed or rejected, completed with an error status, or never
 * completed at all (the simulator went idle with it outstanding).
 */
struct OpAccount
{
    std::uint64_t attempted = 0; //!< ops the phase issued
    std::uint64_t completed = 0; //!< done callbacks that fired
    std::uint64_t rejected = 0;  //!< shed / Overloaded / Pressure
    std::uint64_t errored = 0;   //!< Error, NotFound, failed reads

    /** Ops the simulator never completed. */
    std::uint64_t
    stuck() const
    {
        return attempted > completed ? attempted - completed : 0;
    }

    std::uint64_t failed() const { return rejected + errored + stuck(); }
};

/**
 * One run's metrics in report order. A ratio records the count it
 * was divided by under a base name, and the base is reported as a
 * count metric of its own, so every ratio can be read back to the
 * number of events it averages over.
 */
class MetricSet
{
  public:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
        std::string base; //!< base metric name; empty = not a ratio
    };

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        put(Metric{name, value, unit, ""});
    }

    /** @p num / @p den (0 when @p den is 0), with @p den reported
     * as the count metric @p base. */
    void
    addRatio(const std::string &name, double num, double den,
             const std::string &unit, const std::string &base,
             const std::string &baseUnit = "count")
    {
        put(Metric{name, den > 0.0 ? num / den : 0.0, unit, base});
        addBase(base, den, baseUnit);
    }

    /** Report @p count under @p base; a base reported twice must
     * carry the same count. */
    void
    addBase(const std::string &base, double count,
            const std::string &unit = "count")
    {
        auto it = index_.find(base);
        if (it == index_.end()) {
            put(Metric{base, count, unit, ""});
        } else if (metrics_[it->second].value != count) {
            mismatchedBases_.push_back(base);
        }
    }

    const std::vector<Metric> &all() const { return metrics_; }

    /** Value of @p name; nullptr when absent. */
    const Metric *
    find(const std::string &name) const
    {
        auto it = index_.find(name);
        return it == index_.end() ? nullptr : &metrics_[it->second];
    }

    /** Bases given two different counts (a reporting bug). */
    const std::vector<std::string> &
    mismatchedBases() const
    {
        return mismatchedBases_;
    }

  private:
    void
    put(Metric m)
    {
        auto it = index_.find(m.name);
        if (it != index_.end()) {
            metrics_[it->second] = std::move(m);
            return;
        }
        index_[m.name] = metrics_.size();
        metrics_.push_back(std::move(m));
    }

    std::vector<Metric> metrics_;
    std::map<std::string, std::size_t> index_;
    std::vector<std::string> mismatchedBases_;
};

/** A number as JSON, with every significant digit. */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * The result line: {"correct", "attempted", "failed", "metrics"},
 * with @p names selecting (and ordering) the metrics printed.
 */
inline std::string
resultJson(bool correct, const OpAccount &ops, const MetricSet &set,
           const std::vector<std::string> &names)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(ops.attempted);
    s += ", \"failed\": " + std::to_string(ops.failed());
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto &n : names) {
        const MetricSet::Metric *m = set.find(n);
        if (!m)
            continue;
        if (!first)
            s += ", ";
        first = false;
        s += "\"" + m->name + "\": {\"value\": " + jsonNumber(m->value) +
            ", \"unit\": \"" + m->unit + "\"}";
    }
    s += "}}";
    return s;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
