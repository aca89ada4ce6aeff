/**
 * @file
 * The benchmark's three workloads, each built from a seed and run as
 * one closed-loop measured phase through the public APIs of
 * core::Cluster/Node, kv::KvRouter/KvService and
 * workload::WorkloadEngine:
 *  - kv_read: the svc_kv 20-node serving headline (95/5 zipf 0.99,
 *    256 B values, hot-key cache on), run longer;
 *  - kv_write: a 4-node ring taking 60% puts of 2 KB values over
 *    uniform keys, on cards that hold the phase's appends;
 *  - isp_scan: every node's in-store processor reading random 8 KB
 *    pages from every node's flash via Node::ispReadRemote.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "sim/stats.hh"
#include "stats.hh"

namespace perfbench {

enum class Workload
{
    KvRead,
    KvWrite,
    IspScan,
};

/** Parse a workload name; false when unknown. */
bool parseWorkload(const std::string &name, Workload &out);

/** Whether the workload serves KV operations. */
inline bool
isKv(Workload w)
{
    return w != Workload::IspScan;
}

/** Options of one measured phase. */
struct PhaseOptions
{
    std::uint64_t seed = 1;
    /** Measured ops; 0 = the workload's default size. */
    std::uint64_t ops = 0;
    /** Record sampled span trees (sim::Tracer) during the phase and
     * summarize them into trace.* metrics. */
    bool traced = false;
};

/**
 * One set-up plus measured phase. `sim` holds every simulated-time
 * metric and layer count of the phase; they are exact, so two phases
 * with the same workload and seed must produce identical sets.
 */
struct PhaseResult
{
    double setupSec = 0.0; //!< host: cluster build + preload
    double phaseSec = 0.0; //!< host: the measured phase, less pacing
    /** HostPace::refScale() over this set-up and phase: host seconds
     * x refScale = seconds at the reference host speed. */
    double refScale = 1.0;
    OpAccount ops;
    MetricSet sim;
    /** Latency of accepted ops (ticks): all, reads, writes. */
    bluedbm::sim::LatencyHistogram all, read, write;
    double simSeconds = 0.0; //!< simulated length of the phase
    /** Output checks (read-back, repair sweep, page compare). */
    bool correct = false;
    std::string error; //!< first failed check, empty when correct
};

/**
 * End-to-end simulated metrics of one or more pooled phases:
 * sim_tput_ops (accepted ops per simulated second), sim_p50/p99/p999
 * and read/write p99 (interpolated inside the histogram bucket, with
 * kTailSamples beyond each), their sample counts, and failed_op_frac
 * and ok_op_frac over @p ops.
 */
void reportEndToEnd(MetricSet &m, const OpAccount &ops,
                    const bluedbm::sim::LatencyHistogram &all,
                    const bluedbm::sim::LatencyHistogram &read,
                    const bluedbm::sim::LatencyHistogram &write,
                    double simSeconds);

/** Run one phase of @p w. Fatal model errors abort the process. */
PhaseResult runPhase(Workload w, const PhaseOptions &opt);

struct IspConfig;

/** isp_scan with an explicit configuration (configs.hh). */
PhaseResult runIspScan(const IspConfig &cfg, const PhaseOptions &opt);

/**
 * The 20-node kv_read configuration at svc_kv's own settings (seed
 * 99, 60k ops) must reproduce BENCH_kv.json's nodes20_* figures.
 * Compares the formatted values against @p benchKvPath; returns
 * false and fills @p why on the first mismatch.
 */
bool checkKvGolden(const std::string &benchKvPath, std::string &why);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
