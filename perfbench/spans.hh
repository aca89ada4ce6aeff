/**
 * @file
 * Self time of sampled spans: a span's duration minus the part of
 * it that its child spans cover. A leaf's self time is the work of
 * its stage; the self time of a span that has children is time its
 * children do not explain (the "unattributed" time). Works on
 * sim::Tracer's retained span trees.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/trace.hh"
#include "sim/types.hh"

namespace perfbench {

/** Self times (ticks) by span name, and root coverage totals. */
struct SpanSummary
{
    std::map<std::string, std::vector<double>> selfTicks;
    double rootTicks = 0.0; //!< sum of root durations
    /** Self time of spans that have children (roots included). */
    double unattributedTicks = 0.0;
    std::uint64_t roots = 0;
};

/** Length of the union of @p iv clipped to [lo, hi). */
inline bluedbm::sim::Tick
coveredTicks(std::vector<std::pair<bluedbm::sim::Tick,
                                   bluedbm::sim::Tick>> iv,
             bluedbm::sim::Tick lo, bluedbm::sim::Tick hi)
{
    std::sort(iv.begin(), iv.end());
    bluedbm::sim::Tick covered = 0, reach = lo;
    for (auto [b, e] : iv) {
        b = std::max(b, reach);
        e = std::min(e, hi);
        if (e > b) {
            covered += e - b;
            reach = e;
        }
    }
    return covered;
}

/** Fold @p traces into @p out. */
inline void
summarizeSpans(const std::vector<bluedbm::sim::Tracer::Trace> &traces,
               SpanSummary &out)
{
    using bluedbm::sim::Tick;
    for (const auto &t : traces) {
        const auto &spans = t.spans;
        std::vector<std::vector<std::pair<Tick, Tick>>> kids(
            spans.size());
        for (const auto &s : spans) {
            if (s.parent < spans.size())
                kids[s.parent].emplace_back(s.begin, s.end);
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const auto &s = spans[i];
            if (s.end < s.begin)
                continue; // never closed
            Tick dur = s.end - s.begin;
            Tick self = dur - coveredTicks(kids[i], s.begin, s.end);
            if (i == 0) {
                out.rootTicks += double(dur);
                ++out.roots;
            } else {
                out.selfTicks[s.name].push_back(double(self));
            }
            if (i == 0 || !kids[i].empty())
                out.unattributedTicks += double(self);
        }
    }
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
