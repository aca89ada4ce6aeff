/**
 * @file
 * KV service bench: throughput vs tail latency over the global
 * flash address space (the serving scenario behind figure 17's
 * RAMCloud comparison, with the ROADMAP's 20-node ring as the
 * headline configuration).
 *
 * Five experiments over 8 KB flash pages, replication R=2
 * (quorum-acked writes, W=1 unless swept / read-one); all but the
 * aged-flash run are YCSB-style 95/5 read/write with 256-byte values:
 *  - scaling: closed-loop throughput and p50/p99/p99.9 at 4, 8, 20
 *    and 100 nodes (clients scale with nodes);
 *  - skew: Zipfian theta sweep plus uniform at 8 nodes, run both
 *    with and without the hot-key read cache (hot keys concentrate
 *    on few shards; validated cache hits + read coalescing + read
 *    spreading are what keep p99 flat);
 *  - open loop: Poisson arrivals below saturation at 8 nodes,
 *    where queueing delay becomes visible in the tail;
 *  - write quorum: W=1 vs W=2 at 20 nodes with read/write p99
 *    attribution, the repair-lag high-water (max client-acked puts
 *    simultaneously outstanding on straggler replicas), and a
 *    post-run anti-entropy sweep confirming zero divergence;
 *  - faults: a node crash + rebuild and a ring expansion at 20
 *    nodes, and aged flash at 4 nodes (50/50 mix, 2 KB values),
 *    all under live load.
 *
 * Emits BENCH_kv.json. The bench gates nothing itself: every bound
 * on its numbers (throughput floors, monotone scaling, tail ratios,
 * zero divergence, ...) is a row of tools/gates/gates.py.
 *
 * Each smoke mode runs one small scenario end to end and writes its
 * fields, named as in BENCH_kv.json, to a SMOKE_*.json file in the
 * current directory for the same gate table: `--smoke` (4-node
 * hot-key config; SMOKE_kv_traced.json when traced),
 * `--smoke-quorum` (W=1 straggler failure healed by a repair sweep),
 * `--kill-node`, `--expand`, `--age` and `--smoke-100`.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.hh"
#include "core/cluster.hh"
#include "kv/kv_router.hh"
#include "kv/kv_service.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"
#include "workload/workload.hh"

using namespace bluedbm;

namespace {

/** Mid-size card: 1 GB (8 buses x 2 chips x 128 blocks x 64 pages
 * of 8 KB) -- big enough that the cleaner stays idle, small enough
 * to build twenty nodes of it per config. */
flash::Geometry
kvGeometry()
{
    flash::Geometry g;
    g.buses = 8;
    g.chipsPerBus = 2;
    g.blocksPerChip = 128;
    g.pagesPerBlock = 64;
    g.pageSize = 8192;
    return g;
}

/** Per-stage p99 attribution cut from the always-on kv.stage.*
 * histograms: where a measured phase's tail latency was spent. */
struct StageTails
{
    double admissionP99us = 0.0; //!< window-slot wait at the service
    double netP99us = 0.0;       //!< network round trip minus service
    double shardP99us = 0.0;     //!< shard service (fs + memtable)
    double flashQueueP99us = 0.0; //!< read-class flash queueing
    double nandP99us = 0.0;       //!< read-class NAND service
};

/**
 * Phase cutter over the always-on stage histograms: copy at phase
 * start, subtract at phase end (LatencyHistogram::subtract), so the
 * same five histograms yield steady / crash-window / handoff tails
 * without per-phase plumbing in the serving path.
 */
class StageProbe
{
  public:
    explicit StageProbe(sim::Simulator &sim)
        : adm_(&sim.metrics().histogram("kv.stage.admission")),
          net_(&sim.metrics().histogram("kv.stage.net")),
          shard_(&sim.metrics().histogram("kv.stage.shard")),
          flashQ_(&sim.metrics().histogram("kv.stage.flash_queue",
                                           {{"class", "read"}})),
          nand_(&sim.metrics().histogram("kv.stage.nand",
                                         {{"class", "read"}}))
    {
        rebase();
    }

    /** Start a fresh phase window (e.g. after preload). */
    void
    rebase()
    {
        baseAdm_ = *adm_;
        baseNet_ = *net_;
        baseShard_ = *shard_;
        baseFlashQ_ = *flashQ_;
        baseNand_ = *nand_;
    }

    /** Tails recorded since the last rebase(); rebases after. */
    StageTails
    cut()
    {
        StageTails t;
        t.admissionP99us = phaseP99(*adm_, baseAdm_);
        t.netP99us = phaseP99(*net_, baseNet_);
        t.shardP99us = phaseP99(*shard_, baseShard_);
        t.flashQueueP99us = phaseP99(*flashQ_, baseFlashQ_);
        t.nandP99us = phaseP99(*nand_, baseNand_);
        rebase();
        return t;
    }

  private:
    static double
    phaseP99(sim::LatencyHistogram cur,
             const sim::LatencyHistogram &base)
    {
        cur.subtract(base);
        return cur.count() ? sim::ticksToUs(cur.p99()) : 0.0;
    }

    sim::LatencyHistogram *adm_, *net_, *shard_, *flashQ_, *nand_;
    sim::LatencyHistogram baseAdm_, baseNet_, baseShard_,
        baseFlashQ_, baseNand_;
};

struct RunResult
{
    unsigned nodes = 0;
    double theta = 0.0; //!< 0 = uniform
    bool openLoop = false;
    bool cached = true;
    unsigned quorum = 1; //!< write quorum W
    double tput = 0.0;  //!< accepted ops per simulated second
    double p50us = 0.0, p99us = 0.0, p999us = 0.0;
    double readP99us = 0.0, writeP99us = 0.0; //!< tail attribution
    double meanUs = 0.0;
    std::uint64_t rejected = 0;
    std::uint64_t remoteOps = 0, localOps = 0;
    std::uint64_t cacheServed = 0, cacheStale = 0;
    std::uint64_t coalesced = 0, validated = 0;
    /** Repair lag: max client-acked puts simultaneously
     * outstanding on straggler replicas. */
    unsigned repairLag = 0;
    std::uint64_t divergent = 0;      //!< after the run
    std::uint64_t divergentSwept = 0; //!< after one repair sweep
    /** Read-priority suspension engagement across all NAND arrays:
     * reads that jumped an in-flight program, and program windows
     * parked + resumed. */
    std::uint64_t suspendedPrograms = 0, resumedPrograms = 0;
    /** Where the measured phase's p99 was spent. */
    StageTails stages;
    /** Tracing (traced runs only). */
    std::uint64_t tracesStarted = 0, tracesRetained = 0;
    std::uint64_t tracesSlow = 0;
    /** Sampled get traces with a NAND leaf whose top-level span
     * durations were checked against the root duration. */
    std::uint64_t tracedChecked = 0;
    /** Max |sum(top-level spans) - end-to-end| over the checked
     * traces, in microseconds (one simulated clock: must be 0). */
    double tracedSpanSumErrUs = 0.0;
};

/** --trace-out: Chrome trace-event JSON path (traced runs). */
std::string gTraceOut;
/** --slow-trace-us: always-retain threshold for the slow-request
 * log of traced runs (0 = sampling only). */
std::uint64_t gSlowTraceUs = 0;

/**
 * Span-tree self-check over the retained traces: for every sampled
 * kv.get that reached NAND (the paper's uncached data path), the
 * durations of the root's direct children -- svc.queue then route,
 * which themselves telescope over net.req / shard.get / net.resp --
 * must sum exactly to the root's duration, because every span is
 * clocked by the one simulated clock. Traces that hit a timeout
 * retry (rpc.timeout mark) legitimately hold a straggler span that
 * overlaps the retry and are skipped.
 */
void
checkSpanSums(const sim::Tracer &tracer, RunResult &r)
{
    for (const auto &t : tracer.retained()) {
        if (t.spans.empty() ||
            std::string_view(t.spans[0].name) != "kv.get")
            continue;
        bool has_nand = false, timed_out = false;
        for (const auto &s : t.spans) {
            if (std::string_view(s.name).substr(0, 5) == "nand.")
                has_nand = true;
        }
        for (const auto &m : t.marks) {
            if (std::string_view(m.name) == "rpc.timeout")
                timed_out = true;
        }
        if (!has_nand || timed_out)
            continue;
        sim::Tick sum = 0;
        bool open = false;
        for (std::size_t i = 1; i < t.spans.size(); ++i) {
            const auto &s = t.spans[i];
            if (s.parent != 0)
                continue; // not a direct child of the root
            if (s.end == 0)
                open = true;
            else
                sum += s.end - s.begin;
        }
        if (open)
            continue;
        sim::Tick e2e = t.spans[0].end - t.spans[0].begin;
        sim::Tick err = sum > e2e ? sum - e2e : e2e - sum;
        r.tracedSpanSumErrUs = std::max(r.tracedSpanSumErrUs,
                                        sim::ticksToUs(err));
        ++r.tracedChecked;
    }
}

RunResult
runConfig(unsigned nodes, bool zipfian, double theta, bool open_loop,
          double arrivals_per_sec, std::uint64_t total_ops,
          bool cached = true, unsigned write_quorum = 1,
          bool traced = false)
{
    sim::Simulator sim;
    if (traced) {
        sim::Tracer::Params tp;
        tp.enabled = true;
        tp.sampleEvery = 16;
        tp.slowThresholdTicks = gSlowTraceUs
            ? sim::usToTicks(double(gSlowTraceUs))
            : sim::Tick(0);
        tp.maxRetained = 4096;
        sim.tracer().configure(tp);
    }
    core::ClusterParams cp;
    cp.topology = net::Topology::ring(nodes, nodes >= 20 ? 4 : 2);
    cp.node.geometry = kvGeometry();
    cp.node.timing = flash::Timing{}; // paper NAND timing
    cp.node.cards = 2;
    cp.node.controllerTags = 128;
    cp.network.endpoints = kv::kvRequiredEndpoints;
    core::Cluster cluster(sim, cp);

    kv::KvParams kp;
    kp.replication = 2;
    kp.writeQuorum = write_quorum;
    kp.cacheSlots = cached ? 256 : 0;
    kv::KvRouter router(sim, cluster, kp);
    kv::KvService service(sim, router);

    workload::WorkloadParams wp;
    wp.keys = 10000;
    wp.valueBytes = 256;
    wp.mix.readFrac = 0.95;
    wp.zipfian = zipfian;
    wp.theta = theta;
    wp.clientsPerNode = 8;
    wp.pipeline = 4;
    wp.client.window = 8;
    wp.client.queueCap = 1024;
    wp.openLoop = open_loop;
    wp.arrivalsPerSec = arrivals_per_sec;
    wp.totalOps = total_ops;
    wp.seed = 99;
    workload::WorkloadEngine engine(sim, cluster, router, service,
                                    wp);
    StageProbe probe(sim);

    bool loaded = false;
    engine.preload([&]() { loaded = true; });
    sim.run();
    if (!loaded)
        sim::fatal("kv bench preload did not finish");
    probe.rebase(); // preload ops are not part of the phase
    bool finished = false;
    engine.run([&]() { finished = true; });
    sim.run();
    if (!finished)
        sim::fatal("kv bench run did not finish");
    StageTails stages = probe.cut();

    // Post-run anti-entropy sweep: fault-free traffic must leave
    // zero divergence, and the sweep itself must find nothing --
    // a cheap end-to-end digest-consistency check at scale.
    std::uint64_t divergent_before = router.divergentWrites();
    bool swept = false;
    router.repairSweep([&]() { swept = true; });
    sim.run();
    if (!swept)
        sim::fatal("kv bench repair sweep did not finish");

    RunResult r;
    r.nodes = nodes;
    r.theta = zipfian ? theta : 0.0;
    r.openLoop = open_loop;
    r.cached = cached;
    r.quorum = write_quorum;
    r.stages = stages;
    if (traced) {
        r.tracesStarted = sim.tracer().started();
        r.tracesRetained = sim.tracer().retained().size();
        r.tracesSlow = sim.tracer().retainedSlow();
        checkSpanSums(sim.tracer(), r);
        if (!gTraceOut.empty() &&
            !sim.tracer().writeChromeJson(gTraceOut))
            sim::fatal("could not write trace JSON to %s",
                       gTraceOut.c_str());
    }
    r.repairLag = router.maxBackgroundWrites();
    r.divergent = divergent_before;
    r.divergentSwept = router.divergentWrites();
    r.tput = engine.throughputOpsPerSec();
    const auto &lat = engine.allLatency();
    r.p50us = sim::ticksToUs(lat.p50());
    r.p99us = sim::ticksToUs(lat.p99());
    r.p999us = sim::ticksToUs(lat.p999());
    r.readP99us = sim::ticksToUs(engine.readLatency().p99());
    r.writeP99us = sim::ticksToUs(engine.writeLatency().p99());
    r.meanUs = lat.mean() / double(sim::oneUs);
    r.rejected = engine.rejectedOps();
    r.remoteOps = router.remoteOps();
    r.localOps = router.localOps();
    r.cacheServed = router.cacheServedGets();
    r.cacheStale = router.cacheStaleGets();
    for (unsigned n = 0; n < nodes; ++n) {
        r.coalesced += router.shard(net::NodeId(n)).coalescedGets();
        r.validated += router.shard(net::NodeId(n)).validatedGets();
        for (unsigned c = 0; c < cluster.node(n).cardCount(); ++c) {
            const auto &nand = cluster.node(n).card(c).nand();
            r.suspendedPrograms += nand.suspendedPrograms();
            r.resumedPrograms += nand.resumedPrograms();
        }
    }
    return r;
}

// ---------------------------------------------------------------- //
// Elastic membership scenarios: node kill + throttled rebuild, and
// ring expansion -- both under live closed-loop serving load.
// ---------------------------------------------------------------- //

/** One measured phase of a membership scenario. */
struct MemberPhase
{
    double tput = 0.0;
    double p50us = 0.0, p99us = 0.0;
    std::uint64_t rejected = 0;
    /** Where this phase's p99 was spent. */
    StageTails stages;
    /** Registry-counter activity inside this phase alone
     * (Snapshot::deltaSince across the phase boundary): detection
     * timeouts and membership transitions must land in the phase
     * that caused them, not leak into steady state. */
    std::uint64_t readTimeouts = 0;
    std::uint64_t degradedWrites = 0;
    std::uint64_t suspectTransitions = 0;
    std::uint64_t deadTransitions = 0;
};

struct MemberResult
{
    MemberPhase steady;  //!< everyone healthy
    MemberPhase window;  //!< crash detection / join handoff window
    MemberPhase rebuild; //!< serving while the rebuild streams
    MemberPhase post;    //!< recovered, everyone back
    std::uint64_t readTimeouts = 0, retriedReads = 0;
    std::uint64_t deadTransitions = 0, degradedWrites = 0;
    std::uint64_t backoffs = 0;
    std::uint64_t rebuildRepairs = 0; //!< repairs applied on victim
    /** NAND background-class traffic over the rebuild window: the
     * recovery stream is accounted as maintenance, not serving. */
    std::uint64_t bgReads = 0, bgWrites = 0;
    std::uint64_t movedKeys = 0;  //!< join/leave catch-up pushes
    std::uint64_t ringEpoch = 0;
    std::uint64_t divergentFinal = 0; //!< after the final sweep
};

/** Sum of background-class NAND ops across the cluster. */
void
sumBackground(core::Cluster &cluster, unsigned nodes,
              std::uint64_t &reads, std::uint64_t &writes)
{
    reads = writes = 0;
    for (unsigned n = 0; n < nodes; ++n) {
        for (unsigned c = 0; c < cluster.node(n).cardCount(); ++c) {
            const auto &nand = cluster.node(n).card(c).nand();
            reads += nand.backgroundReads();
            writes += nand.backgroundWrites();
        }
    }
}

/**
 * Fail-stop crash of one node under 20-node-class Zipfian serving
 * load, then a Background-priority rebuild, across four measured
 * phases: steady, kill window (the crash lands mid-phase, so
 * detection timeouts and failover retries are inside the
 * measurement), rebuild window (the anti-entropy stream runs under
 * live load from the surviving clients), and recovered. A final
 * quiesced sweep must report zero divergence.
 *
 * @p tight uses sanitizer-friendly detection knobs so the smoke
 * variant spends milliseconds, not simulated seconds.
 */
MemberResult
runKillRebuild(unsigned nodes, std::uint64_t phase_ops, bool tight)
{
    sim::Simulator sim;
    core::ClusterParams cp;
    cp.topology = net::Topology::ring(nodes, nodes >= 20 ? 4 : 2);
    cp.node.geometry = kvGeometry();
    cp.node.timing = flash::Timing{};
    cp.node.cards = 2;
    cp.node.controllerTags = 128;
    cp.network.endpoints = kv::kvRequiredEndpoints;
    core::Cluster cluster(sim, cp);

    kv::KvParams kp;
    kp.replication = 2;
    kp.writeQuorum = 1;
    kp.cacheSlots = 256;
    if (tight) {
        kp.readTimeoutUs = 1000;
        kp.writeTimeoutUs = 4000;
        kp.suspectAfter = 2;
        kp.deadGraceUs = 2000;
    }
    kv::KvRouter router(sim, cluster, kp);
    kv::KvService service(sim, router);

    workload::WorkloadParams wp;
    wp.keys = 10000;
    wp.valueBytes = 256;
    wp.mix.readFrac = 0.95;
    wp.zipfian = true;
    wp.theta = 0.99;
    wp.clientsPerNode = 8;
    wp.pipeline = 4;
    wp.client.window = 8;
    wp.client.queueCap = 1024;
    wp.honorRetryAfter = true;
    wp.totalOps = phase_ops;
    wp.seed = 99;
    workload::WorkloadEngine engine(sim, cluster, router, service,
                                    wp);

    StageProbe probe(sim);
    bool loaded = false;
    engine.preload([&]() { loaded = true; });
    sim.run();
    if (!loaded)
        sim::fatal("kill bench preload did not finish");
    probe.rebase();
    auto base = sim.metrics().snapshot();

    auto snap = [&]() {
        MemberPhase p;
        p.tput = engine.throughputOpsPerSec();
        p.p50us = sim::ticksToUs(engine.allLatency().p50());
        p.p99us = sim::ticksToUs(engine.allLatency().p99());
        p.rejected = engine.rejectedOps();
        p.stages = probe.cut();
        // Phase-scoped counter deltas: the membership counters are
        // cumulative, so each phase owns exactly the activity
        // between two snapshots.
        auto delta = sim.metrics().snapshot().deltaSince(base);
        p.readTimeouts = delta.total("kv.router.read_timeouts");
        p.degradedWrites = delta.total("kv.router.degraded_writes");
        p.suspectTransitions =
            delta.total("kv.router.suspect_transitions");
        p.deadTransitions =
            delta.total("kv.router.dead_transitions");
        base = sim.metrics().snapshot();
        return p;
    };
    auto phase = [&](const char *name) {
        bool done = false;
        engine.runPhase(phase_ops, [&]() { done = true; });
        sim.run();
        if (!done)
            sim::fatal("kill bench %s phase did not finish", name);
        return snap();
    };

    MemberResult r;
    r.steady = phase("steady");

    // The crash lands mid-phase: the window measurement contains
    // the victim's dying in-flight ops, the detection timeouts,
    // the failover retries and the degraded-quorum writes.
    const net::NodeId victim(nodes - 1);
    bool window_done = false;
    engine.runPhase(phase_ops, [&]() { window_done = true; });
    engine.pauseNode(victim);
    router.killNode(victim);
    sim.run();
    if (!window_done)
        sim::fatal("kill bench window phase did not finish");
    r.window = snap();
    r.readTimeouts = router.readTimeouts();
    r.retriedReads = router.retriedReads();
    r.deadTransitions = router.deadTransitions();
    r.degradedWrites = router.degradedWrites();
    if (router.member(victim) != kv::MemberState::Dead)
        sim::fatal("victim not detected dead by end of window");

    // Restart + rebuild under live load: the recovery stream rides
    // flash Priority::Background while the surviving clients keep
    // serving; the victim's own clients return when it does.
    std::uint64_t bg_reads0 = 0, bg_writes0 = 0;
    sumBackground(cluster, nodes, bg_reads0, bg_writes0);
    router.reviveNode(victim);
    bool rebuilt = false;
    router.rebuildNode(victim, [&]() {
        rebuilt = true;
        engine.resumeNode(victim);
    });
    bool rebuild_done = false;
    engine.runPhase(phase_ops, [&]() { rebuild_done = true; });
    sim.run();
    if (!rebuilt || !rebuild_done)
        sim::fatal("kill bench rebuild phase did not finish");
    r.rebuild = snap();
    r.rebuildRepairs =
        router.shard(victim).repairsApplied();
    std::uint64_t bg_reads1 = 0, bg_writes1 = 0;
    sumBackground(cluster, nodes, bg_reads1, bg_writes1);
    r.bgReads = bg_reads1 - bg_reads0;
    r.bgWrites = bg_writes1 - bg_writes0;
    if (router.member(victim) != kv::MemberState::Live)
        sim::fatal("victim not live after rebuild");

    // Recovered: the full client population serves again.
    r.post = phase("post");
    r.backoffs = engine.backoffs();

    // Quiesced final sweep: the crash window's divergence must be
    // fully healed.
    bool swept = false;
    router.repairSweep([&]() { swept = true; });
    sim.run();
    if (!swept)
        sim::fatal("kill bench final sweep did not finish");
    r.divergentFinal = router.divergentWrites();
    return r;
}

/**
 * Ring expansion under live load: @p nodes serving (cluster built
 * with one extra Standby node and KvParams::activeNodes), the join
 * issued mid-phase so the dual-write handoff, Background catch-up
 * sweep and atomic flip all land inside the window measurement.
 */
MemberResult
runExpand(unsigned nodes, std::uint64_t phase_ops, bool tight)
{
    sim::Simulator sim;
    core::ClusterParams cp;
    cp.topology =
        net::Topology::ring(nodes + 1, nodes + 1 >= 20 ? 4 : 2);
    cp.node.geometry = kvGeometry();
    cp.node.timing = flash::Timing{};
    cp.node.cards = 2;
    cp.node.controllerTags = 128;
    cp.network.endpoints = kv::kvRequiredEndpoints;
    core::Cluster cluster(sim, cp);

    kv::KvParams kp;
    kp.replication = 2;
    kp.writeQuorum = 1;
    kp.cacheSlots = 256;
    kp.activeNodes = nodes; // the last node starts Standby
    // Throttle the catch-up stream harder than the anti-entropy
    // default: the handoff moves a large slice of the key space
    // while every node keeps serving, and a wide-open chunk eats
    // the controller tags foreground reads need.
    kp.repairChunk = 16;
    if (tight) {
        kp.readTimeoutUs = 1000;
        kp.writeTimeoutUs = 4000;
        kp.suspectAfter = 2;
        kp.deadGraceUs = 2000;
    }
    kv::KvRouter router(sim, cluster, kp);
    kv::KvService service(sim, router);

    workload::WorkloadParams wp;
    wp.keys = 10000;
    wp.valueBytes = 256;
    wp.mix.readFrac = 0.95;
    wp.zipfian = true;
    wp.theta = 0.99;
    wp.clientsPerNode = 8;
    wp.clientNodes = nodes; // no sessions on the standby node
    wp.pipeline = 4;
    wp.client.window = 8;
    wp.client.queueCap = 1024;
    wp.honorRetryAfter = true;
    wp.totalOps = phase_ops;
    wp.seed = 99;
    workload::WorkloadEngine engine(sim, cluster, router, service,
                                    wp);

    StageProbe probe(sim);
    bool loaded = false;
    engine.preload([&]() { loaded = true; });
    sim.run();
    if (!loaded)
        sim::fatal("expand bench preload did not finish");
    probe.rebase();
    auto base = sim.metrics().snapshot();

    auto snap = [&]() {
        MemberPhase p;
        p.tput = engine.throughputOpsPerSec();
        p.p50us = sim::ticksToUs(engine.allLatency().p50());
        p.p99us = sim::ticksToUs(engine.allLatency().p99());
        p.rejected = engine.rejectedOps();
        p.stages = probe.cut();
        auto delta = sim.metrics().snapshot().deltaSince(base);
        p.readTimeouts = delta.total("kv.router.read_timeouts");
        p.degradedWrites = delta.total("kv.router.degraded_writes");
        p.suspectTransitions =
            delta.total("kv.router.suspect_transitions");
        p.deadTransitions =
            delta.total("kv.router.dead_transitions");
        base = sim.metrics().snapshot();
        return p;
    };
    auto phase = [&](const char *name) {
        bool done = false;
        engine.runPhase(phase_ops, [&]() { done = true; });
        sim.run();
        if (!done)
            sim::fatal("expand bench %s phase did not finish",
                       name);
        return snap();
    };

    MemberResult r;
    r.steady = phase("steady");

    // The join lands mid-phase; sim.run() drains both the phase
    // and the handoff, whichever finishes first.
    const net::NodeId joiner(nodes);
    bool joined = false;
    bool window_done = false;
    engine.runPhase(phase_ops, [&]() { window_done = true; });
    router.joinNode(joiner, [&]() { joined = true; });
    sim.run();
    if (!window_done || !joined)
        sim::fatal("expand bench join window did not finish");
    r.window = snap();
    if (router.member(joiner) != kv::MemberState::Live)
        sim::fatal("joiner not live after handoff");
    r.readTimeouts = router.readTimeouts();
    r.retriedReads = router.retriedReads();
    r.degradedWrites = router.degradedWrites();
    r.movedKeys = router.movedKeys();
    r.ringEpoch = router.ringEpoch();
    if (router.shard(joiner).keyCount() == 0)
        sim::fatal("joiner holds no keys after handoff");

    // Expanded: the new node is a full read/write replica.
    r.post = phase("post");
    r.backoffs = engine.backoffs();

    bool swept = false;
    router.repairSweep([&]() { swept = true; });
    sim.run();
    if (!swept)
        sim::fatal("expand bench final sweep did not finish");
    r.divergentFinal = router.divergentWrites();
    return r;
}

// ---------------------------------------------------------------- //
// Aged-flash scenario: wear-driven bit errors, the read-retry +
// poison + replica-heal ladder, endurance-driven block retirement
// and capacity pressure -- all under live serving load.
// ---------------------------------------------------------------- //

/** Tiny card for the aging runs: 8 MB (2 buses x 1 chip x 32
 * blocks of 16 x 8 KB pages), so a few thousand puts reach 80%
 * utilization and the cleaner runs hot instead of staying idle. */
flash::Geometry
agedGeometry()
{
    flash::Geometry g;
    g.buses = 2;
    g.chipsPerBus = 1;
    g.blocksPerChip = 32;
    g.pagesPerBlock = 16;
    g.pageSize = 8192;
    return g;
}

/** Wear curve for the aged phase (NandArray::setWearModel): with
 * the pre-age below, the effective BER lands near 2.6e-4 -- about
 * 19 expected raw flips per 8 KB page, enough that SECDED fails a
 * noticeable fraction of senses and the retry ladder + poison +
 * replica-heal machinery all engage within a short phase. */
constexpr double agedBer0 = 2e-5;
constexpr std::uint32_t agedKnee = 1000;
constexpr double agedAlpha = 2.5;
/** Endurance limit; pre-age sits close under it. */
constexpr std::uint32_t agedEraseLimit = 3000;
/** Pre-age cycles for the bulk of the blocks: ~600 erases of
 * headroom, far more than the serving phase plus the anti-entropy
 * rounds perform, so only the marked blocks ever retire and
 * capacity loss stays bounded -- letting ordinary cleaning march
 * the bulk into the limit would shrink the card until the fullest
 * node pins at the cleaner's reserve and repair can never
 * converge. */
constexpr std::uint32_t agedBulkWear = agedEraseLimit - 600;
/** The first this-many blocks of each bus are pre-aged to one
 * cycle under the limit: their next erase retires them. The
 * cleaner breaks victim ties toward low block indices, so these
 * are also the likeliest early victims. Few enough that pages
 * poisoned at their (worst-case) error rate stay a sparse set --
 * losing BOTH replicas of a key is what the scenario must not
 * manufacture. */
constexpr std::uint32_t agedMarkedPerBus = 2;

/** One measured serving phase of the aging scenario. */
struct AgePhase
{
    double tput = 0.0;
    double p50us = 0.0, p99us = 0.0;
    std::uint64_t rejected = 0;
};

struct AgeResult
{
    AgePhase fresh; //!< wear model off, GC already active
    AgePhase aged;  //!< same load over the pre-aged array
    std::uint64_t keys = 0;
    double utilization = 0.0; //!< measured occupied/usable pages
    /** NAND-level error-model activity (aged phase onward). */
    std::uint64_t bitsCorrected = 0, uncorrectablePages = 0;
    /** FlashServer read-retry ladder. */
    std::uint64_t retriedReads = 0, retrySuccesses = 0,
        retryFailures = 0;
    /** LogFs wear management. */
    std::uint64_t retiredBlocks = 0, poisonedPages = 0;
    std::uint64_t reserveAlarms = 0, cleanParks = 0;
    std::uint64_t foregroundAssists = 0, trimmedPages = 0;
    /** Pages the cleaner moved during the aged phase. */
    std::uint64_t relocatedPages = 0;
    /** Aged-phase write amplification: (user page writes + cleaner
     * page moves) / user page writes. */
    double writeAmp = 0.0;
    /** Erase-count distribution across every block of the cluster
     * after the run (min of per-card mins, mean of p50s, max of
     * maxes). */
    std::uint32_t eraseMin = 0, eraseP50 = 0, eraseMax = 0;
    /** Corruption healing: local uncorrectable gets failed over to
     * the replica, and the copy pushed back. */
    std::uint64_t localCorruptions = 0, repairedKeys = 0;
    std::uint64_t corruptFinal = 0; //!< corrupt keys after sweep
    std::uint64_t divergent = 0;    //!< before the final sweep
    std::uint64_t divergentFinal = 0;
    /** Capacity pressure: puts shed at the red line, and client
     * backoffs honoring the retry-after hint. */
    std::uint64_t pressured = 0, backoffs = 0;
    /** Post-sweep full read-back: every key, one origin each. */
    std::uint64_t readBack = 0, readBackBad = 0;
};

/**
 * Serve a skewed 50/50 mix at 88-92% occupied capacity, then age
 * the array in place (wear curve on, blocks pre-aged near the
 * endurance limit) and serve the same load again. The aged phase
 * must keep its tail within 3x of fresh while the full ladder runs
 * underneath: raw bit errors rise with block erase counts, SECDED
 * failures climb the FlashServer retry ladder, persistent losses
 * poison pages and fail over to the replica (healed back by
 * repairPut), endurance-tripped blocks retire behind the cleaner,
 * and the capacity red line sheds puts with a retry-after hint.
 */
AgeResult
runAging(unsigned nodes, std::uint64_t phase_ops)
{
    sim::Simulator sim;
    core::ClusterParams cp;
    cp.topology = net::Topology::ring(nodes, 2);
    flash::Geometry geo = agedGeometry();
    cp.node.geometry = geo;
    cp.node.timing = flash::Timing{};
    cp.node.cards = 1;
    cp.node.controllerTags = 128;
    cp.network.endpoints = kv::kvRequiredEndpoints;
    core::Cluster cluster(sim, cp);

    kv::KvParams kp;
    kp.replication = 2;
    kp.writeQuorum = 1;
    // No hot-key cache: the subject is the flash read path, and a
    // cache hit would mask the very corruption events under test.
    kp.cacheSlots = 0;
    kv::KvRouter router(sim, cluster, kp);
    kv::KvService service(sim, router);

    // Arm the read-retry ladder up front; it is inert while the
    // error model is off, so the fresh phase is unaffected.
    for (unsigned n = 0; n < nodes; ++n)
        cluster.node(n).hostServer(0).setReadRetries(2);

    const std::uint64_t cap = std::uint64_t(geo.buses) *
        geo.chipsPerBus * geo.blocksPerChip * geo.pagesPerBlock *
        geo.pageSize;
    const std::uint32_t value_bytes = 2048;
    // KvShard record framing: 12 bytes of header per value.
    const std::uint64_t record_bytes = value_bytes + 12;
    // Live-bytes target. Occupied capacity runs well above it: a
    // log page holds ~4 records from adjacent keys and stays live
    // until every one of them is overwritten (dead-byte trim), so
    // the page-granular cleaner cannot compact sub-page garbage
    // and the fragmented footprint settles in the 88-92% band the
    // scenario targets (0.9101 in the full run, 0.8975 in the
    // smoke). Measured occupancy is reported, and gated, as the
    // run's utilization.
    const double liveFrac = 0.62;
    const std::uint64_t keys =
        std::uint64_t(double(nodes) * double(cap) * liveFrac) /
        (kp.replication * record_bytes);

    workload::WorkloadParams wp;
    wp.keys = keys;
    wp.valueBytes = value_bytes;
    wp.mix.readFrac = 0.5; // write-heavy: churn feeds the cleaner
    wp.zipfian = true;
    wp.theta = 0.99;
    wp.clientsPerNode = 4;
    wp.pipeline = 2;
    wp.client.window = 8;
    wp.client.queueCap = 1024;
    wp.honorRetryAfter = true; // pressure sheds must back off
    wp.totalOps = phase_ops;
    wp.seed = 99;
    workload::WorkloadEngine engine(sim, cluster, router, service,
                                    wp);

    bool loaded = false;
    engine.preload([&]() { loaded = true; });
    sim.run();
    if (!loaded)
        sim::fatal("aging bench preload did not finish");

    auto phase = [&](const char *name) {
        bool done = false;
        engine.runPhase(phase_ops, [&]() { done = true; });
        sim.run();
        if (!done)
            sim::fatal("aging bench %s phase did not finish", name);
        AgePhase p;
        p.tput = engine.throughputOpsPerSec();
        p.p50us = sim::ticksToUs(engine.allLatency().p50());
        p.p99us = sim::ticksToUs(engine.allLatency().p99());
        p.rejected = engine.rejectedOps();
        return p;
    };

    AgeResult r;
    r.keys = keys;
    r.fresh = phase("fresh");

    // Age the array in place: wear curve on, every block pre-aged
    // near the endurance limit, the marked few one erase under it.
    std::uint64_t written0 = 0, cleaned0 = 0;
    for (unsigned n = 0; n < nodes; ++n) {
        auto &nand = cluster.node(n).card(0).nand();
        nand.setWearModel(agedBer0, agedKnee, agedAlpha);
        auto &store = nand.store();
        flash::Address a;
        for (a.bus = 0; a.bus < geo.buses; ++a.bus) {
            for (a.chip = 0; a.chip < geo.chipsPerBus; ++a.chip) {
                // The heavily-marked blocks sit at different
                // physical positions on each node. Replicated
                // preload lays data out near-identically across
                // nodes, so marking the SAME indices everywhere
                // would poison both replicas of the same keys --
                // manufactured double-fault data loss, not the
                // single-card wear this scenario models.
                for (std::uint32_t b = 0; b < geo.blocksPerChip;
                     ++b) {
                    std::uint32_t slot =
                        (b + geo.blocksPerChip -
                         (n * geo.blocksPerChip / nodes) %
                             geo.blocksPerChip) %
                        geo.blocksPerChip;
                    a.block = b;
                    a.page = 0;
                    store.addWear(a, slot < agedMarkedPerBus
                                         ? agedEraseLimit - 1
                                         : agedBulkWear);
                }
            }
        }
        store.setEraseLimit(agedEraseLimit);
        written0 += cluster.node(n).fs().pagesWritten();
        cleaned0 += cluster.node(n).fs().pagesCleaned();
    }

    r.aged = phase("aged");

    std::uint64_t written1 = 0, cleaned1 = 0;
    for (unsigned n = 0; n < nodes; ++n) {
        written1 += cluster.node(n).fs().pagesWritten();
        cleaned1 += cluster.node(n).fs().pagesCleaned();
    }
    r.relocatedPages = cleaned1 - cleaned0;
    if (written1 > written0)
        r.writeAmp = double((written1 - written0) +
                            (cleaned1 - cleaned0)) /
            double(written1 - written0);

    // Quiesced anti-entropy, run to convergence: every page the
    // wear model destroyed must heal from its replica -- divergence
    // and corrupt keys drain to zero or data was lost. One round is
    // not enough at the red line: repair pushes are themselves
    // appends, so a round's later repairs can shed while the
    // cleaner digests the churn of its earlier ones; each sweep's
    // quiesce window lets reclamation catch up before the next.
    r.divergent = router.divergentWrites();
    for (unsigned round = 0;
         round < 16 && router.divergentWrites() > 0; ++round) {
        bool swept = false;
        router.repairSweep([&]() { swept = true; });
        sim.run();
        if (!swept)
            sim::fatal("aging bench final sweep did not finish");
    }
    r.divergentFinal = router.divergentWrites();

    // Measured capacity utilization: occupied usable pages over
    // usable pages (retired blocks excluded from both sides),
    // averaged across nodes -- the fragmented footprint the
    // cleaner actually contends with, not the a-priori live-bytes
    // fraction.
    {
        const double total = double(geo.buses) * geo.chipsPerBus *
            geo.blocksPerChip;
        double occ = 0.0;
        for (unsigned n = 0; n < nodes; ++n) {
            const auto &fs = cluster.node(n).fs();
            double usable = total - double(fs.retiredBlocks());
            occ += (usable - double(fs.freeBlocks())) / usable;
        }
        r.utilization = occ / nodes;
    }

    std::uint64_t p50sum = 0;
    for (unsigned n = 0; n < nodes; ++n) {
        const auto &node = cluster.node(n);
        auto &nand = cluster.node(n).card(0).nand();
        r.bitsCorrected += nand.bitsCorrected();
        r.uncorrectablePages += nand.uncorrectablePages();
        const auto &hs = cluster.node(n).hostServer(0);
        r.retriedReads += hs.retriedReads();
        r.retrySuccesses += hs.retrySuccesses();
        r.retryFailures += hs.retryFailures();
        const auto &fs = cluster.node(n).fs();
        r.retiredBlocks += fs.retiredBlocks();
        r.poisonedPages += fs.poisonedPages();
        r.reserveAlarms += fs.reserveAlarms();
        r.cleanParks += fs.cleanParks();
        r.foregroundAssists += fs.foregroundAssists();
        r.trimmedPages += fs.trimmedPages();
        auto es = nand.store().eraseStats();
        r.eraseMin = n == 0 ? es.min : std::min(r.eraseMin, es.min);
        r.eraseMax = std::max(r.eraseMax, es.max);
        p50sum += es.p50;
        r.corruptFinal += router.shard(net::NodeId(n))
                              .corruptKeyCount();
        (void)node;
    }
    r.eraseP50 = std::uint32_t(p50sum / nodes);
    r.localCorruptions = router.localCorruptions();
    r.repairedKeys = router.repairedKeys();
    r.pressured = service.pressureRejects();
    r.backoffs = engine.backoffs();

    // Full read-back, one origin per key: a key unreadable here --
    // after retries, failover and the sweep -- was truly lost.
    // Bounded in flight: an unthrottled burst of 6k+ gets would
    // saturate the controllers and trip the 2 ms read timeout on
    // queueing delay alone, reporting healthy keys as failed.
    {
        constexpr unsigned window = 64;
        std::uint64_t bad = 0, reads = 0, next = 0;
        std::function<void()> issue = [&]() {
            if (next >= keys)
                return;
            kv::Key k = next++;
            router.get(net::NodeId(k % nodes), k,
                       [&](flash::PageBuffer, kv::KvStatus st) {
                ++reads;
                if (st != kv::KvStatus::Ok)
                    ++bad;
                issue();
            });
        };
        for (unsigned i = 0; i < window && i < keys; ++i)
            issue();
        sim.run();
        r.readBack = reads;
        r.readBackBad = bad;
    }
    return r;
}

std::vector<RunResult> scaling;

/** Scaling entry for @p nodes (fatal if the sweep lacks it). */
const RunResult &
scalingAt(unsigned nodes)
{
    for (const auto &r : scaling) {
        if (r.nodes == nodes)
            return r;
    }
    sim::fatal("no %u-node entry in the scaling sweep", nodes);
}

std::vector<RunResult> skew;
std::vector<RunResult> skewNoCache;
std::vector<RunResult> quorumSweep;
RunResult open_loop_run;
RunResult traced_run;
MemberResult killRun;
MemberResult expandRun;
AgeResult ageRun;

void
runAll()
{
    // Scaling: the headline. 95/5, Zipfian 0.99, closed loop. The
    // 100-node point is the cluster-scale target the ladder event
    // queue and next-hop routing exist for (>= 10M aggregate ops/s).
    for (unsigned nodes : {4u, 8u, 20u, 100u})
        scaling.push_back(runConfig(nodes, true, 0.99, false, 0.0,
                                    3000ull * nodes));

    // Write-quorum sweep at 20 nodes: W=1 (quorum ack, stragglers
    // in the background) vs W=2 (strict write-all). The write p99
    // gap is the cost of waiting for the slowest replica.
    for (unsigned w : {1u, 2u})
        quorumSweep.push_back(runConfig(20, true, 0.99, false, 0.0,
                                        60000, true, w));

    // Skew sweep at 8 nodes: uniform, then rising Zipfian theta,
    // with the hot-key cache on (default) and off (ablation).
    skew.push_back(runConfig(8, false, 0.0, false, 0.0, 24000));
    for (double theta : {0.5, 0.8, 0.9, 0.99})
        skew.push_back(
            runConfig(8, true, theta, false, 0.0, 24000));
    skewNoCache.push_back(
        runConfig(8, false, 0.0, false, 0.0, 24000, false));
    for (double theta : {0.5, 0.8, 0.9, 0.99})
        skewNoCache.push_back(
            runConfig(8, true, theta, false, 0.0, 24000, false));

    // Open loop at 8 nodes: Poisson arrivals, 64 clients x 2000/s
    // = 128k ops/s offered, well under the closed-loop ceiling.
    open_loop_run = runConfig(8, true, 0.99, true, 2000.0, 24000);

    // Traced run: the headline config again, smaller, with the
    // tracer sampling 1-in-16 ops. Every sampled get that reached
    // NAND must telescope (span sums == e2e); --trace-out exports
    // the span trees as Chrome trace-event JSON for Perfetto.
    traced_run = runConfig(20, true, 0.99, false, 0.0, 12000, true,
                           1, true);

    // Elastic membership at rack scale: one node crashes and is
    // rebuilt under load; a 21st node joins a 20-node serving ring.
    killRun = runKillRebuild(20, 30000, false);
    expandRun = runExpand(20, 30000, false);

    // Aged flash under live load: 4 nodes at 88-92% occupancy, the
    // wear model switched on mid-run. Small on purpose -- aging is
    // a per-card phenomenon, not a scale-out one.
    ageRun = runAging(4, 8000);
}

void
printTable()
{
    bench::banner("KV service: throughput vs tail latency "
                  "(R=2, 95/5, 256 B values)");
    std::printf("%22s %12s %9s %9s %9s %10s\n", "config",
                "ops/s", "p50(us)", "p99(us)", "p99.9(us)",
                "remote%");
    auto row = [](const std::string &name, const RunResult &r) {
        double remote_frac = 100.0 * double(r.remoteOps) /
            double(r.remoteOps + r.localOps);
        std::printf("%22s %12.0f %9.1f %9.1f %9.1f %9.1f%%\n",
                    name.c_str(), r.tput, r.p50us, r.p99us,
                    r.p999us, remote_frac);
    };
    for (const auto &r : scaling)
        row(std::to_string(r.nodes) + " nodes zipf0.99", r);
    auto skew_label = [](const RunResult &r) {
        return r.theta == 0.0
            ? std::string("uniform")
            : "zipf" + std::to_string(r.theta).substr(0, 4);
    };
    for (const auto &r : skew)
        row("8 nodes " + skew_label(r), r);
    for (const auto &r : skewNoCache)
        row("8n nocache " + skew_label(r), r);
    for (const auto &r : quorumSweep)
        row("20 nodes W=" + std::to_string(r.quorum), r);
    row("8 nodes open-loop", open_loop_run);
    for (const auto &r : quorumSweep) {
        std::printf("W=%u: read p99 %.1fus, write p99 %.1fus, "
                    "repair lag %u, divergent %llu -> %llu after "
                    "sweep, %llu suspended / %llu resumed "
                    "programs\n",
                    r.quorum, r.readP99us, r.writeP99us,
                    r.repairLag,
                    (unsigned long long)r.divergent,
                    (unsigned long long)r.divergentSwept,
                    (unsigned long long)r.suspendedPrograms,
                    (unsigned long long)r.resumedPrograms);
    }
    const auto &head = scalingAt(20);
    std::printf("\nClosed-loop scaling must be monotone: %.0f -> "
                "%.0f -> %.0f -> %.0f ops/s (targets >= 1.9M at 20 "
                "nodes, >= 10M at 100).\nOpen loop: %llu rejected "
                "at admission of %u offered.\n",
                scaling[0].tput, scaling[1].tput, scaling[2].tput,
                scaling[3].tput,
                (unsigned long long)open_loop_run.rejected, 24000u);
    std::printf("Hot-key path at 20 nodes: %llu cache-served, "
                "%llu stale-detected, %llu coalesced, %llu "
                "validated at the shards.\n",
                (unsigned long long)head.cacheServed,
                (unsigned long long)head.cacheStale,
                (unsigned long long)head.coalesced,
                (unsigned long long)head.validated);

    bench::banner("Per-stage p99 attribution (us): why the tail "
                  "moved");
    std::printf("%22s %10s %8s %8s %8s %8s\n", "config",
                "admission", "net", "shard", "flashq", "nand");
    auto srow = [](const std::string &name, const StageTails &s) {
        std::printf("%22s %10.1f %8.1f %8.1f %8.1f %8.1f\n",
                    name.c_str(), s.admissionP99us, s.netP99us,
                    s.shardP99us, s.flashQueueP99us, s.nandP99us);
    };
    for (const auto &r : scaling)
        srow(std::to_string(r.nodes) + " nodes zipf0.99",
             r.stages);
    srow("kill: steady", killRun.steady.stages);
    srow("kill: crash window", killRun.window.stages);
    srow("join: handoff window", expandRun.window.stages);
    std::printf("\nTraced run (20 nodes, 1-in-16 sampling): %llu "
                "ops traced, %llu retained (%llu slow); %llu "
                "NAND-reaching gets span-sum-checked, max error "
                "%.3f us (one clock: must be 0).\n",
                (unsigned long long)traced_run.tracesStarted,
                (unsigned long long)traced_run.tracesRetained,
                (unsigned long long)traced_run.tracesSlow,
                (unsigned long long)traced_run.tracedChecked,
                traced_run.tracedSpanSumErrUs);

    bench::banner("Elastic membership under live load (20 nodes)");
    std::printf("%22s %12s %9s %9s %10s\n", "phase", "ops/s",
                "p50(us)", "p99(us)", "rejected");
    auto mrow = [](const char *name, const MemberPhase &p) {
        std::printf("%22s %12.0f %9.1f %9.1f %10llu\n", name,
                    p.tput, p.p50us, p.p99us,
                    (unsigned long long)p.rejected);
    };
    mrow("kill: steady", killRun.steady);
    mrow("kill: crash window", killRun.window);
    mrow("kill: rebuild window", killRun.rebuild);
    mrow("kill: recovered", killRun.post);
    mrow("join: steady", expandRun.steady);
    mrow("join: handoff window", expandRun.window);
    mrow("join: expanded", expandRun.post);
    std::printf("crash: %llu timeouts, %llu retried reads, %llu "
                "dead transitions, %llu degraded writes; rebuild "
                "applied %llu repairs riding %llu background reads "
                "/ %llu background writes; divergence after final "
                "sweep %llu.\n",
                (unsigned long long)killRun.readTimeouts,
                (unsigned long long)killRun.retriedReads,
                (unsigned long long)killRun.deadTransitions,
                (unsigned long long)killRun.degradedWrites,
                (unsigned long long)killRun.rebuildRepairs,
                (unsigned long long)killRun.bgReads,
                (unsigned long long)killRun.bgWrites,
                (unsigned long long)killRun.divergentFinal);
    std::printf("join: %llu keys moved, ring epoch %llu, "
                "divergence after final sweep %llu.\n",
                (unsigned long long)expandRun.movedKeys,
                (unsigned long long)expandRun.ringEpoch,
                (unsigned long long)expandRun.divergentFinal);

    bench::banner("Aged flash under live load (4 nodes, 88-92% "
                  "occupied, 50/50 mix)");
    std::printf("%22s %12s %9s %9s %10s\n", "phase", "ops/s",
                "p50(us)", "p99(us)", "rejected");
    auto arow = [](const char *name, const AgePhase &p) {
        std::printf("%22s %12.0f %9.1f %9.1f %10llu\n", name,
                    p.tput, p.p50us, p.p99us,
                    (unsigned long long)p.rejected);
    };
    arow("fresh", ageRun.fresh);
    arow("aged", ageRun.aged);
    std::printf("wear: %llu bits corrected, %llu uncorrectable "
                "senses; ladder %llu retries (%llu rescued / %llu "
                "exhausted); %llu pages poisoned, %llu blocks "
                "retired, erase counts %u/%u/%u (min/p50/max).\n",
                (unsigned long long)ageRun.bitsCorrected,
                (unsigned long long)ageRun.uncorrectablePages,
                (unsigned long long)ageRun.retriedReads,
                (unsigned long long)ageRun.retrySuccesses,
                (unsigned long long)ageRun.retryFailures,
                (unsigned long long)ageRun.poisonedPages,
                (unsigned long long)ageRun.retiredBlocks,
                ageRun.eraseMin, ageRun.eraseP50, ageRun.eraseMax);
    std::printf("heal: %llu local corruptions failed over, %llu "
                "keys repaired, divergence %llu -> %llu after the "
                "sweep (%llu corrupt keys left), read-back %llu/"
                "%llu bad.\n",
                (unsigned long long)ageRun.localCorruptions,
                (unsigned long long)ageRun.repairedKeys,
                (unsigned long long)ageRun.divergent,
                (unsigned long long)ageRun.divergentFinal,
                (unsigned long long)ageRun.corruptFinal,
                (unsigned long long)ageRun.readBackBad,
                (unsigned long long)ageRun.readBack);
    std::printf("capacity: write amplification %.2f (%llu pages "
                "relocated), %llu trimmed, %llu puts shed at the "
                "red line (%llu backoffs), %llu foreground "
                "assists, %llu reserve alarms.\n",
                ageRun.writeAmp,
                (unsigned long long)ageRun.relocatedPages,
                (unsigned long long)ageRun.trimmedPages,
                (unsigned long long)ageRun.pressured,
                (unsigned long long)ageRun.backoffs,
                (unsigned long long)ageRun.foregroundAssists,
                (unsigned long long)ageRun.reserveAlarms);
}

void
BM_KvService(benchmark::State &state)
{
    for (auto _ : state) {
        scaling.clear();
        skew.clear();
        skewNoCache.clear();
        quorumSweep.clear();
        runAll();
    }
    state.counters["tput_20n"] = scalingAt(20).tput;
    state.counters["p99us_20n"] = scalingAt(20).p99us;
    state.counters["tput_100n"] = scalingAt(100).tput;
}

BENCHMARK(BM_KvService)->Iterations(1)->Unit(benchmark::kSecond);

// ---------------------------------------------------------------- //
// JSON fields. BENCH_kv.json and the smoke modes' SMOKE_*.json share
// these emitters, so a smoke's fields carry its scenario's names and
// tools/gates/gates.py can hold both to the same bounds.
// ---------------------------------------------------------------- //

using bench::JsonCounters;

void
stageFields(JsonCounters &c, const std::string &p, const StageTails &s)
{
    c.emplace_back(p + "stage_admission_p99_us", s.admissionP99us);
    c.emplace_back(p + "stage_net_p99_us", s.netP99us);
    c.emplace_back(p + "stage_shard_p99_us", s.shardP99us);
    c.emplace_back(p + "stage_flash_queue_p99_us", s.flashQueueP99us);
    c.emplace_back(p + "stage_nand_p99_us", s.nandP99us);
}

/** A closed-loop serving run (the scaling sweep). */
void
runFields(JsonCounters &c, const std::string &p, const RunResult &r)
{
    c.emplace_back(p + "tput_ops", r.tput);
    c.emplace_back(p + "p50_us", r.p50us);
    c.emplace_back(p + "p99_us", r.p99us);
    c.emplace_back(p + "p999_us", r.p999us);
    c.emplace_back(p + "read_p99_us", r.readP99us);
    c.emplace_back(p + "write_p99_us", r.writeP99us);
    c.emplace_back(p + "mean_us", r.meanUs);
    c.emplace_back(p + "suspended_programs",
                   double(r.suspendedPrograms));
    c.emplace_back(p + "resumed_programs", double(r.resumedPrograms));
    stageFields(c, p, r.stages);
}

/** A serving run and its post-run repair sweep (the quorum sweep). */
void
sweepFields(JsonCounters &c, const std::string &p, const RunResult &r)
{
    c.emplace_back(p + "tput_ops", r.tput);
    c.emplace_back(p + "p99_us", r.p99us);
    c.emplace_back(p + "read_p99_us", r.readP99us);
    c.emplace_back(p + "write_p99_us", r.writeP99us);
    c.emplace_back(p + "repair_lag", double(r.repairLag));
    c.emplace_back(p + "divergent_after_sweep",
                   double(r.divergentSwept));
}

/** A traced serving run and its span-sum check. */
void
traceFields(JsonCounters &c, const std::string &p, const RunResult &r)
{
    c.emplace_back(p + "tput_ops", r.tput);
    c.emplace_back(p + "p99_us", r.p99us);
    c.emplace_back(p + "started", double(r.tracesStarted));
    c.emplace_back(p + "retained", double(r.tracesRetained));
    c.emplace_back(p + "slow", double(r.tracesSlow));
    c.emplace_back(p + "span_checked", double(r.tracedChecked));
    c.emplace_back(p + "span_sum_err_us", r.tracedSpanSumErrUs);
}

void
phaseFields(JsonCounters &c, const std::string &p, const MemberPhase &m)
{
    c.emplace_back(p + "tput_ops", m.tput);
    c.emplace_back(p + "p50_us", m.p50us);
    c.emplace_back(p + "p99_us", m.p99us);
    c.emplace_back(p + "read_timeouts", double(m.readTimeouts));
    c.emplace_back(p + "degraded_writes", double(m.degradedWrites));
    c.emplace_back(p + "dead_transitions", double(m.deadTransitions));
    stageFields(c, p, m.stages);
}

void
killFields(JsonCounters &c, const MemberResult &r)
{
    phaseFields(c, "member_kill_steady_", r.steady);
    phaseFields(c, "member_kill_window_", r.window);
    phaseFields(c, "member_kill_rebuild_", r.rebuild);
    phaseFields(c, "member_kill_post_", r.post);
    c.emplace_back("member_kill_read_timeouts", double(r.readTimeouts));
    c.emplace_back("member_kill_dead_transitions",
                   double(r.deadTransitions));
    c.emplace_back("member_kill_degraded_writes",
                   double(r.degradedWrites));
    c.emplace_back("member_kill_rebuild_repairs",
                   double(r.rebuildRepairs));
    c.emplace_back("member_kill_bg_reads", double(r.bgReads));
    c.emplace_back("member_kill_bg_writes", double(r.bgWrites));
    c.emplace_back("member_kill_backoffs", double(r.backoffs));
    c.emplace_back("member_kill_divergent_final",
                   double(r.divergentFinal));
}

void
expandFields(JsonCounters &c, const MemberResult &r)
{
    phaseFields(c, "member_expand_steady_", r.steady);
    phaseFields(c, "member_expand_window_", r.window);
    phaseFields(c, "member_expand_post_", r.post);
    c.emplace_back("member_expand_moved_keys", double(r.movedKeys));
    c.emplace_back("member_expand_ring_epoch", double(r.ringEpoch));
    c.emplace_back("member_expand_divergent_final",
                   double(r.divergentFinal));
}

void
ageFields(JsonCounters &c, const AgeResult &r)
{
    c.emplace_back("age_keys", double(r.keys));
    c.emplace_back("age_utilization", r.utilization);
    c.emplace_back("age_fresh_tput_ops", r.fresh.tput);
    c.emplace_back("age_fresh_p99_us", r.fresh.p99us);
    c.emplace_back("age_aged_tput_ops", r.aged.tput);
    c.emplace_back("age_aged_p99_us", r.aged.p99us);
    c.emplace_back("age_write_amp", r.writeAmp);
    c.emplace_back("age_erase_min", double(r.eraseMin));
    c.emplace_back("age_erase_p50", double(r.eraseP50));
    c.emplace_back("age_erase_max", double(r.eraseMax));
    c.emplace_back("age_retired_blocks", double(r.retiredBlocks));
    c.emplace_back("age_bits_corrected", double(r.bitsCorrected));
    c.emplace_back("age_uncorrectable_pages",
                   double(r.uncorrectablePages));
    c.emplace_back("age_retried_reads", double(r.retriedReads));
    c.emplace_back("age_retry_successes", double(r.retrySuccesses));
    c.emplace_back("age_retry_failures", double(r.retryFailures));
    c.emplace_back("age_poisoned_pages", double(r.poisonedPages));
    c.emplace_back("age_relocated_pages", double(r.relocatedPages));
    c.emplace_back("age_local_corruptions",
                   double(r.localCorruptions));
    c.emplace_back("age_repaired_keys", double(r.repairedKeys));
    c.emplace_back("age_corrupt_final", double(r.corruptFinal));
    c.emplace_back("age_divergent_final", double(r.divergentFinal));
    c.emplace_back("age_pressured", double(r.pressured));
    c.emplace_back("age_backoffs", double(r.backoffs));
    c.emplace_back("age_foreground_assists",
                   double(r.foregroundAssists));
    c.emplace_back("age_reserve_alarms", double(r.reserveAlarms));
    c.emplace_back("age_clean_parks", double(r.cleanParks));
    c.emplace_back("age_trimmed_pages", double(r.trimmedPages));
    c.emplace_back("age_read_back_bad", double(r.readBackBad));
}

/** Every BENCH_kv.json field, in file order. */
JsonCounters
kvFields()
{
    JsonCounters c;
    for (const auto &r : scaling)
        runFields(c, "nodes" + std::to_string(r.nodes) + "_", r);
    const auto &head = scalingAt(20);
    c.emplace_back("nodes20_cache_served", double(head.cacheServed));
    c.emplace_back("nodes20_cache_stale", double(head.cacheStale));
    c.emplace_back("nodes20_coalesced_gets", double(head.coalesced));
    auto theta_label = [](const RunResult &r) {
        return r.theta == 0.0
            ? std::string("uniform")
            : "theta" + std::to_string(int(r.theta * 100));
    };
    for (const auto &r : skew) {
        c.emplace_back("skew_" + theta_label(r) + "_tput_ops", r.tput);
        c.emplace_back("skew_" + theta_label(r) + "_p99_us", r.p99us);
    }
    for (const auto &r : skewNoCache) {
        c.emplace_back("skew_nocache_" + theta_label(r) + "_tput_ops",
                       r.tput);
        c.emplace_back("skew_nocache_" + theta_label(r) + "_p99_us",
                       r.p99us);
    }
    for (const auto &r : quorumSweep)
        sweepFields(c, "quorum_w" + std::to_string(r.quorum) + "_", r);
    c.emplace_back("open_tput_ops", open_loop_run.tput);
    c.emplace_back("open_p50_us", open_loop_run.p50us);
    c.emplace_back("open_p99_us", open_loop_run.p99us);
    c.emplace_back("open_p999_us", open_loop_run.p999us);
    c.emplace_back("open_rejected", double(open_loop_run.rejected));
    traceFields(c, "traced_", traced_run);
    killFields(c, killRun);
    expandFields(c, expandRun);
    ageFields(c, ageRun);
    return c;
}

/**
 * Quorum fault-injection smoke: W=1 puts against a cluster where one
 * node fails every NAND program, so every put with that node as a
 * straggler acks Ok and leaves a divergence -- which one anti-entropy
 * sweep must drain, after which every key reads its overwrite from
 * every node.
 */
JsonCounters
smokeQuorum()
{
    sim::Simulator sim;
    core::ClusterParams cp;
    cp.topology = net::Topology::ring(4, 2);
    cp.node.geometry = kvGeometry();
    cp.node.timing = flash::Timing{};
    cp.node.cards = 2;
    cp.node.controllerTags = 128;
    cp.network.endpoints = kv::kvRequiredEndpoints;
    core::Cluster cluster(sim, cp);

    kv::KvParams kp;
    kp.replication = 2;
    kp.writeQuorum = 1;
    kp.cacheSlots = 0;
    kv::KvRouter router(sim, cluster, kp);

    const unsigned faulty = 3;
    const kv::Key keys = 200;
    unsigned ok = 0;
    for (kv::Key k = 0; k < keys; ++k) {
        router.put(net::NodeId(k % 4), k,
                   workload::WorkloadEngine::makeValue(k, 128),
                   [&](kv::KvStatus st) {
            if (st == kv::KvStatus::Ok)
                ++ok;
        });
    }
    sim.run();

    // Overwrite everything with node `faulty` failing programs.
    cluster.node(faulty).hostServer(0).setWriteFault(
        [](const flash::Address &) { return true; });
    unsigned ok2 = 0;
    for (kv::Key k = 0; k < keys; ++k) {
        router.put(net::NodeId(k % 4), k,
                   workload::WorkloadEngine::makeValue(k ^ 0xff,
                                                       128),
                   [&](kv::KvStatus st) {
            if (st == kv::KvStatus::Ok)
                ++ok2;
        });
    }
    sim.run();
    cluster.node(faulty).hostServer(0).setWriteFault(nullptr);

    std::uint64_t divergent = router.divergentWrites();
    bool swept = false;
    router.repairSweep([&]() { swept = true; });
    sim.run();
    if (!swept)
        sim::fatal("quorum smoke repair sweep did not finish");

    unsigned bad = 0, reads = 0;
    for (kv::Key k = 0; k < keys; ++k) {
        for (unsigned origin = 0; origin < 4; ++origin) {
            router.get(net::NodeId(origin), k,
                       [&, k](flash::PageBuffer v,
                              kv::KvStatus st) {
                ++reads;
                if (st != kv::KvStatus::Ok ||
                    v != workload::WorkloadEngine::makeValue(
                             k ^ 0xff, 128))
                    ++bad;
            });
        }
    }
    sim.run();

    return {
        {"quorum_w1_puts", double(keys)},
        {"quorum_w1_puts_ok", double(ok)},
        {"quorum_w1_faulted_puts_ok", double(ok2)},
        {"quorum_w1_divergent", double(divergent)},
        {"quorum_w1_divergent_after_sweep",
         double(router.divergentWrites())},
        {"quorum_w1_straggler_repairs",
         double(router.shard(net::NodeId(faulty)).repairsApplied())},
        {"quorum_w1_reads", double(reads)},
        {"quorum_w1_reads_bad", double(bad)},
    };
}

/** Print a smoke's fields and write them to @p path (full precision,
 * so a bound is not met by rounding). Returns main()'s exit code. */
int
writeSmoke(const char *path, const JsonCounters &c)
{
    for (const auto &[name, value] : c)
        std::printf("%s %g\n", name.c_str(), value);
    return bench::writeJson(path, c, 17) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Tracing flags first (and stripped from argv: the benchmark
    // library rejects flags it does not know): --trace-out enables
    // the tracer on the traced run / smoke and exports the retained
    // span trees as Chrome trace-event JSON; --slow-trace-us arms
    // the always-on slow-request log at that threshold.
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        std::string a(argv[i]);
        if (a == "--trace-out") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--trace-out needs a path\n");
                return 1;
            }
            gTraceOut = argv[++i];
            continue;
        }
        if (a == "--slow-trace-us") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--slow-trace-us needs a value\n");
                return 1;
            }
            gSlowTraceUs = std::strtoull(argv[++i], nullptr, 10);
            continue;
        }
        argv[kept++] = argv[i];
    }
    argc = kept;
    argv[argc] = nullptr;

    // Smoke modes (CI runs them under ASan/UBSan): one scenario each,
    // its fields written to SMOKE_*.json for tools/gates/gates.py.
    for (int i = 1; i < argc; ++i) {
        std::string a(argv[i]);
        JsonCounters c;
        if (a == "--smoke") {
            bool traced = !gTraceOut.empty() || gSlowTraceUs != 0;
            RunResult r = runConfig(4, true, 0.99, false, 0.0, 4000,
                                    true, 1, traced);
            if (traced) {
                traceFields(c, "traced_", r);
                return writeSmoke("SMOKE_kv_traced.json", c);
            }
            runFields(c, "nodes4_", r);
            return writeSmoke("SMOKE_kv.json", c);
        }
        if (a == "--smoke-quorum")
            return writeSmoke("SMOKE_quorum.json", smokeQuorum());
        if (a == "--kill-node") {
            killFields(c, runKillRebuild(4, 3000, true));
            return writeSmoke("SMOKE_kill.json", c);
        }
        if (a == "--expand") {
            // Default detection knobs: a join involves no failure
            // detection, and the tight timeouts sit below the
            // 4-node steady tail, manufacturing spurious retries.
            expandFields(c, runExpand(4, 3000, false));
            return writeSmoke("SMOKE_expand.json", c);
        }
        if (a == "--age") {
            ageFields(c, runAging(4, 6000));
            return writeSmoke("SMOKE_age.json", c);
        }
        if (a == "--smoke-100") {
            sweepFields(c, "nodes100_",
                        runConfig(100, true, 0.99, false, 0.0, 20000));
            return writeSmoke("SMOKE_n100.json", c);
        }
    }

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    if (scaling.empty())
        runAll();
    printTable();
    bench::writeJson("BENCH_kv.json", kvFields());
    return 0;
}
