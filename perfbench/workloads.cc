#include "workloads.hh"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "configs.hh"
#include "core/cluster.hh"
#include "core/messages.hh"
#include "kv/kv_router.hh"
#include "kv/kv_service.hh"
#include "pace.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "spans.hh"
#include "workload/workload.hh"

namespace perfbench {

using namespace bluedbm;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
us(sim::Tick t)
{
    return sim::ticksToUs(t);
}

/** A registry histogram cut to the samples recorded after start(). */
class HistCut
{
  public:
    HistCut(sim::Simulator &sim, const char *name,
            sim::MetricLabels labels = {})
        : h_(&sim.metrics().histogram(name, std::move(labels)))
    {
    }

    void start() { base_ = *h_; }

    void
    stop()
    {
        cut_ = *h_;
        cut_.subtract(base_);
    }

    const sim::LatencyHistogram &phase() const { return cut_; }

  private:
    sim::LatencyHistogram *h_;
    sim::LatencyHistogram base_, cut_;
};

/** Quantile @p q of @p h in microseconds, under the sample rule,
 * interpolated inside its bucket. */
double
quantileUs(const sim::LatencyHistogram &h, double q)
{
    return interpolatedQuantile(h, reportableQuantile(q, h.count())) /
        double(sim::oneUs);
}

/** The same quantile at the bucket's upper edge, as BENCH_kv.json
 * reports it. */
double
edgeQuantileUs(const sim::LatencyHistogram &h, double q)
{
    return us(h.quantile(reportableQuantile(q, h.count())));
}

/** Layer counters and stage tails captured at phase start and at the
 * instant the last measured op completes. */
class PhaseCapture
{
  public:
    PhaseCapture(sim::Simulator &sim, core::Cluster &cluster)
        : sim_(sim), cluster_(cluster),
          admission_(sim, "kv.stage.admission"),
          net_(sim, "kv.stage.net"), shard_(sim, "kv.stage.shard"),
          flashQueue_(sim, "kv.stage.flash_queue", {{"class", "read"}}),
          nand_(sim, "kv.stage.nand", {{"class", "read"}})
    {
    }

    void
    start()
    {
        base_ = sim_.metrics().snapshot();
        events0_ = sim_.eventsExecuted();
        laneBytes0_ = cluster_.network().totalLaneBytes();
        msgs0_ = messagesSent();
        tick0_ = sim_.now();
        for (HistCut *h : hists())
            h->start();
    }

    void
    stop()
    {
        delta_ = sim_.metrics().snapshot().deltaSince(base_);
        events_ = sim_.eventsExecuted() - events0_;
        laneBytes_ = cluster_.network().totalLaneBytes() - laneBytes0_;
        msgs_ = messagesSent() - msgs0_;
        simSec_ = sim::ticksToSec(sim_.now() - tick0_);
        for (HistCut *h : hists())
            h->stop();
    }

    /** Lowest LogFs free-block count on any node, sampled between
     * simulation slices. */
    void
    sampleFreeBlocks()
    {
        for (unsigned n = 0; n < cluster_.size(); ++n) {
            freeMin_ = std::min<std::uint64_t>(
                freeMin_, cluster_.node(n).fs().freeBlocks());
        }
    }

    double count(const char *name) const { return double(delta_.total(name)); }

    /** Emit the layer metrics shared by every workload. */
    void
    report(MetricSet &m, double attempted) const
    {
        const std::string per_op = "base.attempted";
        m.addRatio("sim.events_per_op", double(events_), attempted,
                   "1/op", per_op);
        m.addBase("base.events", double(events_));
        m.add("sim.event_pool_slots", double(sim_.eventPoolSlots()),
              "count");

        m.addRatio("net.msgs_per_op", double(msgs_), attempted, "1/op",
                   per_op);
        m.addBase("base.msgs", double(msgs_));
        m.addRatio("net.lane_bytes_per_op", double(laneBytes_),
                   attempted, "B/op", per_op);
        stage(m, "net.stage_p99_us", "base.stage_net_samples",
              net_.phase());

        double reads = count("nand.pages_read");
        double programs = count("nand.pages_written");
        m.addRatio("flash.page_reads_per_op", reads, attempted, "1/op",
                   per_op);
        m.addRatio("flash.page_programs_per_op", programs, attempted,
                   "1/op", per_op);
        m.addRatio("flash.erases_per_op", count("nand.blocks_erased"),
                   attempted, "1/op", per_op);
        m.addRatio("flash.suspended_programs_per_op",
                   count("nand.suspended_programs"), attempted, "1/op",
                   per_op);
        m.addBase("base.page_reads", reads);
        m.addBase("base.page_programs", programs);
        stage(m, "flash.queue_p99_us", "base.stage_flash_queue_samples",
              flashQueue_.phase());
        stage(m, "flash.nand_p99_us", "base.stage_nand_samples",
              nand_.phase());

        double fs_pages = count("fs.pages_written");
        m.addRatio("fs.write_amp", programs, fs_pages, "x",
                   "base.fs_pages_written");
        m.addRatio("fs.pages_cleaned_per_op", count("fs.pages_cleaned"),
                   attempted, "1/op", per_op);
        m.add("fs.foreground_assists", count("fs.foreground_assists"),
              "count");
        // Page writes that rode a program already in flight, of all
        // page writes the file system was asked for.
        double batched = count("fs.batched_page_writes");
        m.addRatio("fs.batched_frac", batched, batched + fs_pages, "frac",
                   "base.fs_page_write_requests");
        m.add("fs.free_blocks_min", double(freeMin_), "count");
    }

    /** Emit the KV-layer metrics. */
    void
    reportKv(MetricSet &m, double gets) const
    {
        m.addRatio("kv.cache_hit_frac", count("kv.router.cache_served"),
                   gets, "frac", "base.read_samples");
        double local = count("kv.router.local_ops");
        double remote = count("kv.router.remote_ops");
        m.addRatio("kv.remote_frac", remote, local + remote, "frac",
                   "base.routed_ops");
        double shard_gets = count("kv.shard.gets");
        m.addRatio("kv.memtable_hit_frac", count("kv.shard.memtable_hits"),
                   shard_gets, "frac", "base.shard_gets");
        m.addRatio("kv.coalesced_frac", count("kv.shard.coalesced_gets"),
                   shard_gets, "frac", "base.shard_gets");
        m.add("kv.read_timeouts", count("kv.router.read_timeouts"),
              "count");
        stage(m, "kv.stage_admission_p99_us",
              "base.stage_admission_samples", admission_.phase());
        stage(m, "kv.stage_shard_p99_us", "base.stage_shard_samples",
              shard_.phase());
    }

    double simSeconds() const { return simSec_; }

  private:
    static void
    stage(MetricSet &m, const char *name, const char *base,
          const sim::LatencyHistogram &h)
    {
        m.add(name, quantileUs(h, 0.99), "us");
        m.addBase(base, double(h.count()));
    }

    std::uint64_t
    messagesSent()
    {
        auto &net = cluster_.network();
        std::uint64_t sent = 0;
        for (unsigned n = 0; n < net.nodeCount(); ++n) {
            for (unsigned e = 1; e < net.endpointCount(); ++e)
                sent += net.endpoint(net::NodeId(n),
                                     net::EndpointId(e)).sent();
        }
        return sent;
    }

    std::vector<HistCut *>
    hists()
    {
        return {&admission_, &net_, &shard_, &flashQueue_, &nand_};
    }

    sim::Simulator &sim_;
    core::Cluster &cluster_;
    HistCut admission_, net_, shard_, flashQueue_, nand_;
    sim::MetricsRegistry::Snapshot base_, delta_;
    std::uint64_t events0_ = 0, events_ = 0;
    std::uint64_t laneBytes0_ = 0, laneBytes_ = 0;
    std::uint64_t msgs0_ = 0, msgs_ = 0;
    sim::Tick tick0_ = 0;
    double simSec_ = 0.0;
    std::uint64_t freeMin_ = ~std::uint64_t(0);
};

/** Simulated time between free-block samples. */
const sim::Tick kSlice = sim::usToTicks(100.0);

/** Run @p sim in slices until @p done or idle, sampling the file
 * systems and pacing the host between slices. */
void
runSliced(sim::Simulator &sim, PhaseCapture &cap, const bool &done,
          HostPace &pace)
{
    sim::Tick limit = sim.now();
    while (!done && !sim.idle()) {
        limit += kSlice;
        sim.runUntil(limit);
        cap.sampleFreeBlocks();
        // Only before the phase ends: its time is taken off the phase.
        if (!done)
            pace.tick();
    }
}

/** Pace quanta run around set-up, outside its timing. */
constexpr int kSetupQuanta = 4;

void
paceSetup(HostPace &pace)
{
    for (int i = 0; i < kSetupQuanta; ++i)
        pace.quantum();
}

void
enableTracing(sim::Simulator &sim)
{
    sim::Tracer::Params tp;
    tp.enabled = true;
    tp.sampleEvery = 4;
    tp.maxRetained = std::size_t(1) << 16;
    sim.tracer().configure(tp);
}

/** Spans whose self time the traced run reports. */
const char *const kTracedSpans[] = {
    "svc.queue", "net.req",     "net.resp",  "shard.get",
    "shard.put", "flash.queue", "nand.read", "nand.write",
};

void
reportSpans(MetricSet &m, const sim::Tracer &tracer)
{
    SpanSummary sum;
    summarizeSpans(tracer.retained(), sum);
    for (const char *name : kTracedSpans) {
        std::vector<double> v = sum.selfTicks[name];
        std::string pfx = std::string("trace.") + name;
        auto n = std::uint64_t(v.size());
        m.add(pfx + ".self_us_p50",
              us(sim::Tick(exactQuantile(v, reportableQuantile(0.5, n)))),
              "us");
        m.add(pfx + ".self_us_p99",
              us(sim::Tick(exactQuantile(v, reportableQuantile(0.99, n)))),
              "us");
        m.addBase("base.span." + std::string(name), double(n));
    }
    m.addRatio("trace.unattributed_frac", sum.unattributedTicks,
               sum.rootTicks, "frac", "base.traced_root_ticks",
               "ticks");
    m.addBase("base.traced_roots", double(sum.roots));
}

// ------------------------------------------------------------------ //
// KV workloads
// ------------------------------------------------------------------ //

struct KvStack
{
    KvStack(const KvConfig &c, std::uint64_t seed)
        : cluster(sim, clusterParams(net::Topology::ring(c.nodes, c.lanes),
                                     c.geometry, c.cards,
                                     kv::kvRequiredEndpoints, 1)),
          router(sim, cluster, c.kv), service(sim, router),
          engine(sim, cluster, router, service, withSeed(c.wl, seed))
    {
    }

    static workload::WorkloadParams
    withSeed(workload::WorkloadParams wl, std::uint64_t seed)
    {
        wl.seed = seed;
        return wl;
    }

    sim::Simulator sim;
    core::Cluster cluster;
    kv::KvRouter router;
    kv::KvService service;
    workload::WorkloadEngine engine;
};

/** Post-phase output checks: the repair sweep leaves no divergence,
 * and sampled keys read back their (deterministic) last value. */
std::string
checkKv(KvStack &s, const KvConfig &c)
{
    bool swept = false;
    s.router.repairSweep([&]() { swept = true; });
    s.sim.run();
    if (!swept)
        return "repair sweep did not finish";
    if (s.router.divergentWrites() != 0)
        return "divergence after repair sweep: " +
            std::to_string(s.router.divergentWrites());

    const std::uint64_t keys = c.wl.keys;
    const std::uint64_t stride = std::max<std::uint64_t>(1, keys / 256);
    std::uint64_t checked = 0, bad = 0;
    for (kv::Key k = 0; k < keys; k += stride) {
        s.router.get(net::NodeId(k % c.nodes), k,
                     [&, k](flash::PageBuffer v, kv::KvStatus st) {
            ++checked;
            if (st != kv::KvStatus::Ok ||
                v != workload::WorkloadEngine::makeValue(
                         k, c.wl.valueBytes))
                ++bad;
        });
    }
    s.sim.run();
    std::uint64_t expected = (keys + stride - 1) / stride;
    if (checked != expected)
        return "read-back did not complete";
    if (bad)
        return std::to_string(bad) + " of " + std::to_string(checked) +
            " read-back keys wrong";
    return "";
}

PhaseResult
runKv(const KvConfig &cfg, const PhaseOptions &opt)
{
    PhaseResult r;
    KvConfig c = cfg;
    if (opt.ops)
        c.wl.totalOps = opt.ops;

    HostPace pace;
    paceSetup(pace);
    auto t0 = Clock::now();
    auto s = std::make_unique<KvStack>(c, opt.seed);
    bool loaded = false;
    s->engine.preload([&]() { loaded = true; });
    s->sim.run();
    if (!loaded) {
        r.error = "preload did not finish";
        return r;
    }
    r.setupSec = secondsSince(t0);
    paceSetup(pace);

    PhaseCapture cap(s->sim, s->cluster);
    if (opt.traced)
        enableTracing(s->sim);
    bool done = false;
    Clock::time_point t_end;
    auto t1 = Clock::now();
    double paced0 = pace.spent();
    cap.start();
    s->engine.run([&]() {
        done = true;
        t_end = Clock::now();
        cap.stop();
    });
    runSliced(s->sim, cap, done, pace);
    if (!done) {
        t_end = Clock::now();
        cap.stop();
    }
    r.phaseSec = std::chrono::duration<double>(t_end - t1).count() -
        (pace.spent() - paced0);
    r.refScale = pace.refScale();

    const auto &e = s->engine;
    r.ops.attempted = c.wl.totalOps;
    r.ops.completed = e.completedOps();
    r.ops.rejected = e.rejectedOps();
    r.ops.errored = e.notFoundOps() +
        std::uint64_t(cap.count("kv.router.failed_reads")) +
        std::uint64_t(cap.count("kv.router.write_timeouts"));

    r.all = e.allLatency();
    r.read = e.readLatency();
    r.write = e.writeLatency();
    r.simSeconds = cap.simSeconds();
    reportEndToEnd(r.sim, r.ops, r.all, r.read, r.write, r.simSeconds);
    MetricSet &m = r.sim;
    // Bucket-edge values, unreported: what BENCH_kv.json carries.
    m.add("edge.sim_tput_ops", e.throughputOpsPerSec(), "ops/s");
    m.add("edge.sim_p50_us", edgeQuantileUs(e.allLatency(), 0.5), "us");
    m.add("edge.sim_p99_us", edgeQuantileUs(e.allLatency(), 0.99), "us");
    m.add("edge.sim_read_p99_us", edgeQuantileUs(e.readLatency(), 0.99),
          "us");
    m.add("edge.sim_write_p99_us",
          edgeQuantileUs(e.writeLatency(), 0.99), "us");
    double attempted = double(r.ops.attempted);
    cap.report(m, attempted);
    cap.reportKv(m, double(e.readLatency().count()));
    m.addRatio("kv.shed_frac", double(r.ops.rejected), attempted, "frac",
               "base.attempted");
    m.add("core.remote_read_frac", 0.0, "frac");
    if (opt.traced)
        reportSpans(m, s->sim.tracer());
    // The output checks below are not part of the traced phase.
    s->sim.tracer().configure(sim::Tracer::Params{});

    if (r.ops.stuck()) {
        r.error = std::to_string(r.ops.stuck()) +
            " ops never completed (simulator idle)";
        return r;
    }
    r.error = checkKv(*s, c);
    r.correct = r.error.empty();
    return r;
}

// ------------------------------------------------------------------ //
// isp_scan
// ------------------------------------------------------------------ //

std::uint64_t
pageHash(const flash::PageBuffer &p)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : p)
        h = (h ^ b) * 0x100000001b3ull;
    return h;
}

struct IspSample
{
    net::NodeId node = 0;
    unsigned card = 0;
    flash::Address addr;
    std::uint64_t hash = 0;
};

/** Closed-loop in-store readers, one per node. */
class IspScan
{
  public:
    IspScan(sim::Simulator &sim, core::Cluster &cluster,
            const IspConfig &cfg, std::uint64_t seed)
        : sim_(sim), cluster_(cluster), cfg_(cfg)
    {
        for (unsigned n = 0; n < cfg.nodes; ++n) {
            Reader rd;
            rd.rng = sim::Rng(seed * 0x9e3779b97f4a7c15ull + n + 1);
            rd.quota = cfg.ops / cfg.nodes +
                (n < cfg.ops % cfg.nodes ? 1 : 0);
            readers_.push_back(rd);
        }
    }

    void
    run(std::function<void()> done)
    {
        done_ = std::move(done);
        for (unsigned n = 0; n < cfg_.nodes; ++n) {
            for (unsigned w = 0; w < cfg_.window; ++w)
                issue(n);
        }
    }

    const sim::LatencyHistogram &latencies() const { return lat_; }
    const std::vector<IspSample> &samples() const { return samples_; }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t remote() const { return remote_; }
    std::uint64_t badSize() const { return badSize_; }

  private:
    struct Reader
    {
        sim::Rng rng;
        std::uint64_t quota = 0, issued = 0;
    };

    void
    issue(unsigned n)
    {
        Reader &rd = readers_[n];
        if (rd.issued >= rd.quota)
            return;
        ++rd.issued;
        const auto &g = cfg_.geometry;
        auto target = net::NodeId(rd.rng.below(cfg_.nodes));
        auto card = unsigned(rd.rng.below(cfg_.cards));
        flash::Address a;
        a.bus = std::uint32_t(rd.rng.below(g.buses));
        a.chip = std::uint32_t(rd.rng.below(g.chipsPerBus));
        a.block = std::uint32_t(rd.rng.below(g.blocksPerChip));
        a.page = std::uint32_t(rd.rng.below(g.pagesPerBlock));
        if (target != n)
            ++remote_;
        bool keep = (issuedTotal_++ % 64) == 0;
        sim::Tick t0 = sim_.now();
        cluster_.node(n).ispReadRemote(
            target, card, a,
            [this, n, target, card, a, keep, t0](flash::PageBuffer p) {
            lat_.record(sim_.now() - t0);
            if (p.size() != cfg_.geometry.pageSize)
                ++badSize_;
            if (keep)
                samples_.push_back({target, card, a, pageHash(p)});
            if (++completed_ == cfg_.ops) {
                auto fin = std::move(done_);
                fin();
                return;
            }
            issue(n);
        });
    }

    sim::Simulator &sim_;
    core::Cluster &cluster_;
    IspConfig cfg_;
    std::vector<Reader> readers_;
    sim::LatencyHistogram lat_;
    std::vector<IspSample> samples_;
    std::uint64_t issuedTotal_ = 0, completed_ = 0, remote_ = 0;
    std::uint64_t badSize_ = 0;
    std::function<void()> done_;
};

/** Each sampled page must equal a direct local read of its address
 * on the node that holds it. */
std::string
checkIsp(sim::Simulator &sim, core::Cluster &cluster,
         const std::vector<IspSample> &samples)
{
    std::uint64_t checked = 0, bad = 0;
    for (const IspSample &s : samples) {
        cluster.node(s.node).ispReadLocal(
            s.card, s.addr, [&, h = s.hash](flash::PageBuffer p) {
            ++checked;
            if (pageHash(p) != h)
                ++bad;
        });
    }
    sim.run();
    if (checked != samples.size())
        return "page compare reads did not complete";
    if (bad)
        return std::to_string(bad) + " of " + std::to_string(checked) +
            " sampled pages differ from a local read";
    if (samples.empty())
        return "no pages sampled";
    return "";
}

} // namespace

PhaseResult
runIspScan(const IspConfig &cfg, const PhaseOptions &opt)
{
    PhaseResult r;
    IspConfig c = cfg;
    if (opt.ops)
        c.ops = opt.ops;

    HostPace pace;
    paceSetup(pace);
    auto t0 = Clock::now();
    sim::Simulator sim;
    core::Cluster cluster(sim, clusterParams(
                                 net::Topology::ring(c.nodes, c.lanes),
                                 c.geometry, c.cards,
                                 core::epIspData3 + 1u, opt.seed));
    IspScan scan(sim, cluster, c, opt.seed);
    r.setupSec = secondsSince(t0);
    paceSetup(pace);

    PhaseCapture cap(sim, cluster);
    if (opt.traced)
        enableTracing(sim);
    bool done = false;
    Clock::time_point t_end;
    auto t1 = Clock::now();
    double paced0 = pace.spent();
    cap.start();
    scan.run([&]() {
        done = true;
        t_end = Clock::now();
        cap.stop();
    });
    runSliced(sim, cap, done, pace);
    if (!done) {
        t_end = Clock::now();
        cap.stop();
    }
    r.phaseSec = std::chrono::duration<double>(t_end - t1).count() -
        (pace.spent() - paced0);
    r.refScale = pace.refScale();

    r.ops.attempted = c.ops;
    r.ops.completed = scan.completed();
    r.ops.errored = scan.badSize();
    r.all = scan.latencies();
    r.read = r.all;
    r.simSeconds = cap.simSeconds();
    reportEndToEnd(r.sim, r.ops, r.all, r.read, r.write, r.simSeconds);
    MetricSet &m = r.sim;
    double attempted = double(r.ops.attempted);
    cap.report(m, attempted);
    cap.reportKv(m, double(r.read.count()));
    m.addRatio("kv.shed_frac", 0.0, attempted, "frac", "base.attempted");
    m.addRatio("core.remote_read_frac", double(scan.remote()),
               attempted, "frac", "base.attempted");
    if (opt.traced)
        reportSpans(m, sim.tracer());

    if (r.ops.stuck()) {
        r.error = std::to_string(r.ops.stuck()) +
            " reads never completed (simulator idle)";
        return r;
    }
    r.error = checkIsp(sim, cluster, scan.samples());
    r.correct = r.error.empty();
    return r;
}

void
reportEndToEnd(MetricSet &m, const OpAccount &ops,
               const sim::LatencyHistogram &all,
               const sim::LatencyHistogram &read,
               const sim::LatencyHistogram &write, double simSeconds)
{
    std::uint64_t accepted = all.count();
    m.add("sim_tput_ops",
          simSeconds > 0 ? double(accepted) / simSeconds : 0.0, "ops/s");
    m.add("sim_p50_us", quantileUs(all, 0.5), "us");
    m.add("sim_p99_us", quantileUs(all, 0.99), "us");
    m.add("sim_p999_us", quantileUs(all, 0.999), "us");
    m.add("sim_read_p99_us", quantileUs(read, 0.99), "us");
    m.add("sim_write_p99_us", quantileUs(write, 0.99), "us");
    m.addBase("base.samples", double(accepted));
    m.addBase("base.read_samples", double(read.count()));
    m.addBase("base.write_samples", double(write.count()));
    double attempted = double(ops.attempted);
    m.addRatio("failed_op_frac", double(ops.failed()), attempted, "frac",
               "base.attempted");
    m.addRatio("ok_op_frac", double(ops.attempted - ops.failed()),
               attempted, "frac", "base.attempted");
}

bool
parseWorkload(const std::string &name, Workload &out)
{
    if (name == "kv_read")
        out = Workload::KvRead;
    else if (name == "kv_write")
        out = Workload::KvWrite;
    else if (name == "isp_scan")
        out = Workload::IspScan;
    else
        return false;
    return true;
}

PhaseResult
runPhase(Workload w, const PhaseOptions &opt)
{
    switch (w) {
    case Workload::KvRead:
        return runKv(kvReadConfig(), opt);
    case Workload::KvWrite:
        return runKv(kvWriteConfig(), opt);
    case Workload::IspScan:
        break;
    }
    return runIspScan(IspConfig{}, opt);
}

bool
checkKvGolden(const std::string &benchKvPath, std::string &why)
{
    std::ifstream in(benchKvPath);
    if (!in) {
        why = "cannot read " + benchKvPath;
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();

    PhaseOptions opt;
    opt.seed = 99;
    opt.ops = 60000;
    PhaseResult r = runPhase(Workload::KvRead, opt);
    if (!r.correct) {
        why = "golden run failed: " + r.error;
        return false;
    }
    const std::pair<const char *, const char *> fields[] = {
        {"nodes20_tput_ops", "edge.sim_tput_ops"},
        {"nodes20_p50_us", "edge.sim_p50_us"},
        {"nodes20_p99_us", "edge.sim_p99_us"},
        {"nodes20_read_p99_us", "edge.sim_read_p99_us"},
        {"nodes20_write_p99_us", "edge.sim_write_p99_us"},
    };
    for (auto [golden, ours] : fields) {
        // BENCH_kv.json prints "%.6g"; compare at that precision.
        char buf[64];
        std::snprintf(buf, sizeof buf, "\"%s\": %.6g", golden,
                      r.sim.find(ours)->value);
        if (json.find(buf) == std::string::npos) {
            why = std::string("mismatch: ours ") + buf;
            return false;
        }
    }
    return true;
}

} // namespace perfbench
