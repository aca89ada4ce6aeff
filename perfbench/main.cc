/**
 * @file
 * perfbench: one measured run of one workload.
 *
 *   perfbench --workload kv_read|kv_write|isp_scan --seed N
 *             --seconds S --trace 0|1
 *   perfbench --check-golden BENCH_kv.json
 *
 * --trace 0 repeats set-up + measured phase until S seconds have
 * passed (at least three times), checks that every repetition gives
 * identical simulated metrics, and reports the end-to-end metrics:
 * simulated ones from the phase, host ones as medians over the
 * repetitions, each scaled to the reference host speed that
 * HostPace quanta measure alongside it (pace.hh). --trace 1 runs
 * untraced and traced phases in pairs plus the component probes,
 * and reports the per-layer metrics.
 * The last line of standard output is the JSON result. A run whose
 * simulator went idle with ops outstanding, or whose simulated
 * metrics differ between repetitions, prints no result and exits 2;
 * a failed output check prints "correct": false and exits 1.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "probes.hh"
#include "stats.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

/** End-to-end metrics (BENCHMARK.json "end_to_end"), trace 0. */
const std::vector<std::string> kEndToEnd = {
    "sim_tput_ops", "sim_p50_us",     "sim_p99_us",
    "sim_p999_us",  "sim_read_p99_us", "ok_op_frac",
    "host_ops_per_s", "setup_s",      "peak_rss_mb",
};

/** Per-layer metrics (BENCHMARK.json "per_layer"), trace 1. */
const std::vector<std::string> kPerLayer = {
    "sim_write_p99_us", "failed_op_frac",
    "sim.events_per_op", "sim.host_ns_per_event", "sim.event_pool_slots",
    "net.msgs_per_op", "net.hops_per_msg", "net.lane_bytes_per_op",
    "net.stage_p99_us", "net.host_ns_per_msg",
    "flash.page_reads_per_op", "flash.page_programs_per_op",
    "flash.erases_per_op", "flash.suspended_programs_per_op",
    "flash.queue_p99_us", "flash.nand_p99_us", "flash.host_ns_per_read",
    "flash.host_ns_per_program",
    "fs.write_amp", "fs.pages_cleaned_per_op", "fs.foreground_assists",
    "fs.batched_frac", "fs.free_blocks_min",
    "kv.cache_hit_frac", "kv.remote_frac", "kv.memtable_hit_frac",
    "kv.coalesced_frac", "kv.shed_frac", "kv.read_timeouts",
    "kv.stage_admission_p99_us", "kv.stage_shard_p99_us",
    "kv.host_ns_per_op",
    "core.remote_read_frac",
    "trace.svc.queue.self_us_p50", "trace.svc.queue.self_us_p99",
    "trace.net.req.self_us_p50", "trace.net.req.self_us_p99",
    "trace.net.resp.self_us_p50", "trace.net.resp.self_us_p99",
    "trace.shard.get.self_us_p50", "trace.shard.get.self_us_p99",
    "trace.shard.put.self_us_p50", "trace.shard.put.self_us_p99",
    "trace.flash.queue.self_us_p50", "trace.flash.queue.self_us_p99",
    "trace.nand.read.self_us_p50", "trace.nand.read.self_us_p99",
    "trace.nand.write.self_us_p50", "trace.nand.write.self_us_p99",
    "trace.unattributed_frac", "trace.overhead",
    "host_share.net", "host_share.flash", "host_share.kv",
    "host_share.unattributed",
    "base.attempted", "base.samples", "base.read_samples",
    "base.write_samples", "base.events", "base.msgs", "base.page_reads",
    "base.page_programs", "base.fs_pages_written",
    "base.fs_page_write_requests", "base.routed_ops",
    "base.shard_gets", "base.stage_net_samples",
    "base.stage_flash_queue_samples", "base.stage_nand_samples",
    "base.stage_admission_samples", "base.stage_shard_samples",
    "base.span.svc.queue", "base.span.net.req", "base.span.net.resp",
    "base.span.shard.get", "base.span.shard.put", "base.span.flash.queue",
    "base.span.nand.read", "base.span.nand.write", "base.traced_roots",
    "base.traced_root_ticks", "base.untraced_phase_s", "base.probe_msgs",
    "base.probe_reads", "base.probe_programs", "base.probe_kv_ops",
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Names of simulated metrics that differ between @p a and @p b,
 * ignoring those only a traced phase reports. */
std::string
simDiff(const MetricSet &a, const MetricSet &b)
{
    for (const auto &m : a.all()) {
        if (m.name.rfind("trace.", 0) == 0 ||
            m.name.rfind("base.span.", 0) == 0 ||
            m.name.rfind("base.traced_", 0) == 0)
            continue;
        const MetricSet::Metric *o = b.find(m.name);
        if (!o || o->value != m.value)
            return m.name;
    }
    return "";
}

struct Args
{
    Workload workload = Workload::KvRead;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string golden;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "kv_read|kv_write|isp_scan --seed N --seconds S "
                 "--trace 0|1\n"
                 "       perfbench --check-golden BENCH_kv.json\n",
                 msg);
    std::exit(64);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            if (!parseWorkload(v, a.workload))
                usage(("unknown workload " + v).c_str());
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            a.trace = v == "1";
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
        } else if (k == "--check-golden") {
            a.golden = v;
            have_workload = true;
        } else {
            usage(("unknown option " + k).c_str());
        }
        if (end && *end)
            usage(("bad number for " + k).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

using Clock = std::chrono::steady_clock;

double
elapsed(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Exit without a result when a phase cannot be reported. */
void
requireReportable(const PhaseResult &r, const PhaseResult *first)
{
    if (r.ops.stuck()) {
        std::fprintf(stderr, "perfbench: %s\n", r.error.c_str());
        std::exit(2);
    }
    if (first) {
        std::string d = simDiff(first->sim, r.sim);
        if (!d.empty()) {
            std::fprintf(stderr,
                         "perfbench: simulated metric %s differs "
                         "between repetitions of one seed\n",
                         d.c_str());
            std::exit(2);
        }
    }
}

int
finish(const PhaseResult &r, const MetricSet &out,
       const std::vector<std::string> &names)
{
    for (const auto &n : names) {
        if (!out.find(n)) {
            std::fprintf(stderr, "perfbench: metric %s missing\n",
                         n.c_str());
            return 2;
        }
    }
    if (!out.mismatchedBases().empty()) {
        std::fprintf(stderr, "perfbench: base %s reported twice\n",
                     out.mismatchedBases()[0].c_str());
        return 2;
    }
    if (!r.correct)
        std::printf("output check failed: %s\n", r.error.c_str());
    std::printf("%s\n", resultJson(r.correct, r.ops, out, names).c_str());
    return r.correct ? 0 : 1;
}

/** Phases with distinct sub-seeds whose simulated metrics are pooled
 * into one run's end-to-end figures. */
constexpr unsigned kPooled = 12;

/** Seed of pooled phase @p k of a run with seed @p seed. */
std::uint64_t
subSeed(std::uint64_t seed, unsigned k)
{
    return seed * 16 + k;
}

int
runUntraced(const Args &a)
{
    auto t0 = Clock::now();
    std::vector<PhaseResult> pooled;
    std::vector<double> ops_per_s, setup;
    unsigned reps = 0;
    // Repetition kPooled + k repeats phase k's seed and must reproduce
    // its simulated metrics exactly.
    while (reps < kPooled + 1 || (elapsed(t0) < a.seconds && reps < 64)) {
        unsigned k = reps % kPooled;
        PhaseOptions opt;
        opt.seed = subSeed(a.seed, k);
        PhaseResult r = runPhase(a.workload, opt);
        requireReportable(r, reps >= kPooled ? &pooled[k] : nullptr);
        std::printf("rep %u (seed %llu): setup %.3f s, phase %.3f s, "
                    "ref scale %.3f, %s\n",
                    reps, (unsigned long long)opt.seed, r.setupSec,
                    r.phaseSec, r.refScale,
                    r.correct ? "ok" : r.error.c_str());
        // Host times at the reference speed (see pace.hh).
        ops_per_s.push_back(double(r.ops.attempted) /
                            (r.phaseSec * r.refScale));
        setup.push_back(r.setupSec * r.refScale);
        ++reps;
        if (!r.correct) {
            MetricSet out = r.sim;
            return finish(r, out, {});
        }
        if (pooled.size() < kPooled)
            pooled.push_back(std::move(r));
    }

    PhaseResult sum;
    sum.correct = true;
    bluedbm::sim::LatencyHistogram all, read, write;
    double sim_s = 0.0;
    for (const PhaseResult &p : pooled) {
        sum.ops.attempted += p.ops.attempted;
        sum.ops.completed += p.ops.completed;
        sum.ops.rejected += p.ops.rejected;
        sum.ops.errored += p.ops.errored;
        all.merge(p.all);
        read.merge(p.read);
        write.merge(p.write);
        sim_s += p.simSeconds;
    }
    if (all.count() < minSamplesFor(0.999)) {
        std::fprintf(stderr, "perfbench: %llu samples are too few for "
                     "sim_p999_us\n", (unsigned long long)all.count());
        return 2;
    }
    MetricSet out;
    reportEndToEnd(out, sum.ops, all, read, write, sim_s);
    out.add("host_ops_per_s", median(ops_per_s), "ops/s");
    out.add("setup_s", median(setup), "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    return finish(sum, out, kEndToEnd);
}

int
runTraced(const Args &a)
{
    PhaseOptions opt;
    opt.seed = subSeed(a.seed, 0);
    auto t0 = Clock::now();
    std::vector<double> plain_s, traced_s;
    PhaseResult plain, traced;
    // Untraced and traced phases alternate, so drift in the host's
    // speed hits both sides of trace.overhead alike.
    do {
        PhaseOptions o = opt;
        PhaseResult u = runPhase(a.workload, o);
        requireReportable(u, plain_s.empty() ? nullptr : &plain);
        o.traced = true;
        PhaseResult t = runPhase(a.workload, o);
        requireReportable(t, &u);
        plain_s.push_back(u.phaseSec);
        traced_s.push_back(t.phaseSec);
        std::printf("pair %zu: untraced %.3f s, traced %.3f s\n",
                    plain_s.size() - 1, u.phaseSec, t.phaseSec);
        if (!u.correct || !t.correct) {
            traced = std::move(t.correct ? u : t);
            break;
        }
        if (plain_s.size() == 1) {
            plain = std::move(u);
            traced = std::move(t);
        }
    } while (elapsed(t0) < a.seconds / 2 && plain_s.size() < 16);

    ProbeCosts pc = runProbes(a.workload, a.seed, 3);

    MetricSet out = traced.sim;
    double host_s = median(plain_s);
    out.addRatio("trace.overhead", median(traced_s), host_s, "x",
                 "base.untraced_phase_s", "s");
    double events = out.find("base.events")->value;
    out.add("sim.host_ns_per_event", events > 0 ? host_s * 1e9 / events : 0.0,
            "ns");
    out.add("net.hops_per_msg", pc.hopsPerMsg, "1/msg");
    out.add("net.host_ns_per_msg", pc.nsPerMsg, "ns");
    out.add("flash.host_ns_per_read", pc.nsPerRead, "ns");
    out.add("flash.host_ns_per_program", pc.nsPerProgram, "ns");
    out.add("kv.host_ns_per_op", pc.kvNsPerOp, "ns");
    out.addBase("base.probe_msgs", double(pc.msgs));
    out.addBase("base.probe_reads", double(pc.reads));
    out.addBase("base.probe_programs", double(pc.programs));
    out.addBase("base.probe_kv_ops", double(pc.kvOps));

    // Probe unit cost x the run's count of that unit, as a share of
    // the untraced phase's host time.
    double host_ns = host_s * 1e9;
    double share_net = pc.nsPerMsg * out.find("base.msgs")->value;
    double share_flash =
        pc.nsPerRead * out.find("base.page_reads")->value +
        pc.nsPerProgram * out.find("base.page_programs")->value;
    double share_kv = pc.kvNsPerOp * double(traced.ops.attempted);
    const std::string base = "base.untraced_phase_s";
    out.addRatio("host_share.net", share_net / 1e9, host_s, "frac", base, "s");
    out.addRatio("host_share.flash", share_flash / 1e9, host_s, "frac",
                 base, "s");
    out.addRatio("host_share.kv", share_kv / 1e9, host_s, "frac", base, "s");
    out.addRatio("host_share.unattributed",
                 (host_ns - share_net - share_flash - share_kv) / 1e9,
                 host_s, "frac", base, "s");
    return finish(traced, out, kPerLayer);
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    if (!a.golden.empty()) {
        std::string why;
        if (!checkKvGolden(a.golden, why)) {
            std::fprintf(stderr, "perfbench: golden check: %s\n",
                         why.c_str());
            return 1;
        }
        std::printf("kv_read at svc_kv's 20-node settings matches %s\n",
                    a.golden.c_str());
        return 0;
    }
    return a.trace ? runTraced(a) : runUntraced(a);
}
