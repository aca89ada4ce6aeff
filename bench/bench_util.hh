/**
 * @file
 * Shared helpers for the paper-reproduction benches: paper-style
 * table printing and windowed request issuing.
 *
 * Every bench binary regenerates one table or figure of the paper.
 * It runs its simulation(s), registers the headline metrics as
 * google-benchmark counters, and prints the rows/series the paper
 * reports in plain text so outputs can be compared side by side.
 */

#ifndef BLUEDBM_BENCH_BENCH_UTIL_HH
#define BLUEDBM_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"
#include "sim/types.hh"

namespace bench {

/** Ordered (name, value) counters destined for a JSON report. */
using JsonCounters = std::vector<std::pair<std::string, double>>;

/**
 * Write @p counters as a flat JSON object to @p path, so the perf
 * trajectory of every bench is machine-readable across PRs (the
 * BENCH_*.json files at the repo root).
 *
 * Values are printed with @p digits significant digits; non-finite
 * ones are emitted as null. Returns false (with a warning on stderr)
 * when the file cannot be written.
 */
inline bool
writeJson(const std::string &path, const JsonCounters &counters,
          int digits = 6)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
        return false;
    }
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < counters.size(); ++i) {
        const auto &[name, value] = counters[i];
        std::fprintf(f, "  \"%s\": ", name.c_str());
        if (std::isfinite(value))
            std::fprintf(f, "%.*g", digits, value);
        else
            std::fprintf(f, "null");
        std::fprintf(f, "%s\n", i + 1 < counters.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    bool ok = std::ferror(f) == 0;
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        std::fprintf(stderr, "bench: short write to %s\n",
                     path.c_str());
    return ok;
}

/** Print a section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n==============================================="
                "===============\n  %s\n"
                "================================================"
                "==============\n",
                title.c_str());
}

/**
 * Issue @p total asynchronous requests keeping at most @p depth
 * outstanding (models the bounded page buffers / request queues real
 * software uses). @p issue receives the request index and a
 * completion callback it must eventually invoke; @p all_done fires
 * after the last completion.
 */
class Window
{
  public:
    using Issue =
        std::function<void(std::uint64_t, std::function<void()>)>;

    static void
    run(std::uint64_t total, unsigned depth, Issue issue,
        std::function<void()> all_done = {})
    {
        auto st = std::make_shared<State>();
        st->total = total;
        st->issue = std::move(issue);
        st->allDone = std::move(all_done);
        pump(st, depth);
    }

  private:
    struct State
    {
        std::uint64_t total = 0;
        std::uint64_t issued = 0;
        std::uint64_t completed = 0;
        Issue issue;
        std::function<void()> allDone;
    };

    static void
    pump(std::shared_ptr<State> st, unsigned depth)
    {
        while (st->issued < st->total &&
               st->issued - st->completed < depth) {
            std::uint64_t idx = st->issued++;
            st->issue(idx, [st, depth]() {
                ++st->completed;
                if (st->completed == st->total) {
                    if (st->allDone)
                        st->allDone();
                    return;
                }
                pump(st, depth);
            });
        }
    }
};

} // namespace bench

#endif // BLUEDBM_BENCH_BENCH_UTIL_HH
