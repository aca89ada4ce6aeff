/**
 * @file
 * Component probes: each drives one layer's public API on its own,
 * with a workload's op shape, and times the calls in host time. The
 * traced run multiplies these unit costs by the layer's counts to
 * split the run's host time by layer.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>

#include "workloads.hh"

namespace perfbench {

/** Host cost per unit of work, medians over probe repetitions. */
struct ProbeCosts
{
    /** net: StorageNetwork on the workload's ring, request/response
     * pairs between random distinct nodes at the workload's message
     * sizes. */
    double nsPerMsg = 0.0;
    double hopsPerMsg = 0.0; //!< exact, from the probe's routes
    std::uint64_t msgs = 0;
    /** flash: one FlashCard + FlashServer; page programs, then page
     * reads (of written pages for KV, of never-written pages for
     * isp_scan). */
    double nsPerRead = 0.0;
    double nsPerProgram = 0.0;
    std::uint64_t reads = 0, programs = 0;
    /** kv: the KV stack on one node (R=1, no network) with the
     * workload's mix, minus its flash work at the flash probe's
     * unit costs. 0 for isp_scan. */
    double kvNsPerOp = 0.0;
    std::uint64_t kvOps = 0;
};

/** Run every probe @p reps times for @p w and take medians. */
ProbeCosts runProbes(Workload w, std::uint64_t seed, unsigned reps);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
