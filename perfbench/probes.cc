#include "probes.hh"

#include <chrono>
#include <functional>
#include <vector>

#include "configs.hh"
#include "core/messages.hh"
#include "flash/flash_card.hh"
#include "flash/flash_server.hh"
#include "kv/kv_service.hh"
#include "net/network.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** A workload's op shape as the network and flash probes see it. */
struct Shape
{
    unsigned nodes = 0, lanes = 0;
    double readFrac = 1.0;
    std::uint32_t readReq = 0, readResp = 0, writeReq = 0, writeResp = 0;
    bool writtenReads = true;
    std::uint32_t readLen = 0; //!< bytes a read returns; 0 = the page
};

Shape
shapeOf(Workload w)
{
    Shape s;
    if (w == Workload::IspScan) {
        IspConfig c;
        s.nodes = c.nodes;
        s.lanes = c.lanes;
        s.readReq = core::readRequestBytes;
        s.readResp = c.geometry.pageSize + core::readRequestBytes;
        s.writtenReads = false;
        return s;
    }
    KvConfig c = w == Workload::KvRead ? kvReadConfig() : kvWriteConfig();
    s.nodes = c.nodes;
    s.lanes = c.lanes;
    s.readFrac = c.wl.mix.readFrac;
    s.readReq = kv::kvHeaderBytes;
    s.readResp = kv::kvHeaderBytes + c.wl.valueBytes;
    s.writeReq = kv::kvHeaderBytes + c.wl.valueBytes;
    s.writeResp = kv::kvHeaderBytes;
    // LogFs reads only a record's range of its page.
    s.readLen = c.wl.valueBytes;
    return s;
}

// ------------------------------------------------------------------ //
// net
// ------------------------------------------------------------------ //

/** Closed-loop request/response pairs over a bare StorageNetwork. */
class NetProbe
{
  public:
    static constexpr net::EndpointId kReq = 1, kResp = 2;
    static constexpr unsigned kWindow = 4;

    NetProbe(const Shape &s, std::uint64_t seed, std::uint64_t requests)
        : s_(s), net_(sim_, net::Topology::ring(s.nodes, s.lanes),
                      params()),
          requests_(requests)
    {
        for (unsigned n = 0; n < s.nodes; ++n) {
            rngs_.emplace_back(seed * 0x2545f4914f6cdd1dull + n + 1);
            auto id = net::NodeId(n);
            net_.endpoint(id, kReq).setReceiveHandler(
                [this, id](net::Message m) {
                bool read = m.bytes == s_.readReq;
                std::uint32_t bytes = read ? s_.readResp : s_.writeResp;
                hops_ += net_.routeHops(kResp, id, m.src);
                net_.endpoint(id, kResp).send(m.src, bytes);
            });
            net_.endpoint(id, kResp).setReceiveHandler(
                [this, id](net::Message) {
                ++done_;
                issue(id);
            });
        }
    }

    /** Host ns per message; fills @p hops and @p msgs. */
    double
    run(double &hops, std::uint64_t &msgs)
    {
        auto t0 = Clock::now();
        for (unsigned n = 0; n < s_.nodes; ++n) {
            for (unsigned w = 0; w < kWindow; ++w)
                issue(net::NodeId(n));
        }
        sim_.run();
        double ns = nsSince(t0);
        if (done_ != requests_)
            sim::fatal("net probe: %llu of %llu requests completed",
                       (unsigned long long)done_,
                       (unsigned long long)requests_);
        msgs = 2 * done_;
        hops = double(hops_) / double(msgs);
        return ns / double(msgs);
    }

  private:
    static net::StorageNetwork::Params
    params()
    {
        net::StorageNetwork::Params p;
        p.endpoints = 3;
        return p;
    }

    void
    issue(net::NodeId n)
    {
        if (issued_ >= requests_)
            return;
        ++issued_;
        sim::Rng &rng = rngs_[n];
        auto dst = net::NodeId(rng.below(s_.nodes - 1));
        if (dst >= n)
            ++dst;
        bool read = rng.uniform() < s_.readFrac;
        hops_ += net_.routeHops(kReq, n, dst);
        net_.endpoint(n, kReq).send(dst, read ? s_.readReq : s_.writeReq);
    }

    Shape s_;
    sim::Simulator sim_;
    net::StorageNetwork net_;
    std::vector<sim::Rng> rngs_;
    std::uint64_t requests_ = 0, issued_ = 0, done_ = 0, hops_ = 0;
};

// ------------------------------------------------------------------ //
// flash
// ------------------------------------------------------------------ //

/** Programs then reads pages of one card through a FlashServer. */
class FlashProbe
{
  public:
    static constexpr unsigned kIfcs = 4, kDepth = 64;

    FlashProbe(std::uint64_t seed)
        : geo_(servingGeometry()),
          card_(sim_, geo_, flash::Timing{}, kIfcs * kDepth, seed),
          server_(sim_, card_.splitter().addPort(kIfcs * kDepth), kIfcs,
                  kDepth),
          rng_(seed ^ 0xd6e8feb86659fd93ull)
    {
    }

    /** Host ns per page program of @p n sequential pages. */
    double
    programs(std::uint64_t n)
    {
        std::uint64_t next = 0;
        auto t0 = Clock::now();
        pump(n, [&]() {
            flash::Address a = pageAt(next++);
            server_.writePage(ifc(), a, flash::PageBuffer(geo_.pageSize,
                                                          0x5a),
                              [this](flash::Status) { ++done_; });
        });
        written_ = n;
        return nsSince(t0) / double(n);
    }

    /** Host ns per read of @p len bytes (0 = whole page) from @p n
     * random pages, among the written ones when @p written, else
     * anywhere on the card. */
    double
    reads(std::uint64_t n, bool written, std::uint32_t len)
    {
        std::uint64_t range = written ? written_ : geo_.pages();
        auto t0 = Clock::now();
        pump(n, [&]() {
            flash::Address a = pageAt(rng_.below(range));
            server_.readPage(
                ifc(), a,
                [this](flash::PageBuffer, flash::Status) { ++done_; },
                flash::Priority::Read, 0, len);
        });
        return nsSince(t0) / double(n);
    }

  private:
    /** Page @p i, pages of a block in program order. */
    flash::Address
    pageAt(std::uint64_t i) const
    {
        flash::Address a;
        a.page = std::uint32_t(i % geo_.pagesPerBlock);
        i /= geo_.pagesPerBlock;
        a.bus = std::uint32_t(i % geo_.buses);
        i /= geo_.buses;
        a.chip = std::uint32_t(i % geo_.chipsPerBus);
        a.block = std::uint32_t(i / geo_.chipsPerBus);
        return a;
    }

    unsigned ifc() { return rotor_++ % kIfcs; }

    /** Issue @p n ops, at most kIfcs * kDepth outstanding. */
    void
    pump(std::uint64_t n, const std::function<void()> &one)
    {
        done_ = 0;
        std::uint64_t issued = 0;
        while (done_ < n) {
            while (issued < n && issued - done_ < kIfcs * kDepth) {
                one();
                ++issued;
            }
            sim_.step();
            if (sim_.idle() && done_ < issued)
                sim::fatal("flash probe stalled");
        }
    }

    flash::Geometry geo_;
    sim::Simulator sim_;
    flash::FlashCard card_;
    flash::FlashServer server_;
    sim::Rng rng_;
    unsigned rotor_ = 0;
    std::uint64_t done_ = 0, written_ = 0;
};

// ------------------------------------------------------------------ //
// kv
// ------------------------------------------------------------------ //

/** Host ns per op of the KV stack on one node, and its flash work. */
double
kvProbe(const KvConfig &workload, std::uint64_t seed, std::uint64_t ops,
        double &reads, double &programs)
{
    KvConfig c = workload;
    // One node's share of the replicated key space.
    c.wl.keys = c.wl.keys * c.kv.replication / c.nodes;
    c.kv.activeNodes = 1;
    c.wl.clientNodes = 1;
    c.kv.replication = 1;
    c.kv.writeQuorum = 1;
    c.wl.totalOps = ops;
    c.wl.seed = seed;

    sim::Simulator sim;
    // Topologies need two nodes; the second stays a standby that owns
    // no keys and homes no clients, so no op crosses the network.
    core::Cluster cluster(sim, clusterParams(net::Topology::line(2),
                                             c.geometry, c.cards,
                                             kv::kvRequiredEndpoints, 1));
    kv::KvRouter router(sim, cluster, c.kv);
    kv::KvService service(sim, router);
    workload::WorkloadEngine engine(sim, cluster, router, service, c.wl);
    bool loaded = false;
    engine.preload([&]() { loaded = true; });
    sim.run();
    if (!loaded)
        sim::fatal("kv probe preload did not finish");

    auto before = sim.metrics().snapshot();
    bool done = false;
    auto t0 = Clock::now();
    engine.run([&]() { done = true; });
    sim.run();
    double ns = nsSince(t0);
    if (!done)
        sim::fatal("kv probe phase did not finish");
    auto delta = sim.metrics().snapshot().deltaSince(before);
    reads = double(delta.total("nand.pages_read"));
    programs = double(delta.total("nand.pages_written"));
    return ns;
}

} // namespace

ProbeCosts
runProbes(Workload w, std::uint64_t seed, unsigned reps)
{
    Shape s = shapeOf(w);
    std::vector<double> net_ns, read_ns, prog_ns, kv_ns;
    ProbeCosts pc;
    for (unsigned r = 0; r < reps; ++r) {
        NetProbe np(s, seed + r, 20000);
        net_ns.push_back(np.run(pc.hopsPerMsg, pc.msgs));

        FlashProbe fp(seed + r);
        pc.programs = 20000;
        pc.reads = 20000;
        prog_ns.push_back(fp.programs(pc.programs));
        read_ns.push_back(fp.reads(pc.reads, s.writtenReads, s.readLen));
    }
    pc.nsPerMsg = median(net_ns);
    pc.nsPerRead = median(read_ns);
    pc.nsPerProgram = median(prog_ns);

    if (isKv(w)) {
        KvConfig c = w == Workload::KvRead ? kvReadConfig()
                                           : kvWriteConfig();
        pc.kvOps = 20000;
        for (unsigned r = 0; r < reps; ++r) {
            double reads = 0, programs = 0;
            double ns = kvProbe(c, seed + r, pc.kvOps, reads, programs);
            double flash_ns =
                reads * pc.nsPerRead + programs * pc.nsPerProgram;
            kv_ns.push_back((ns - flash_ns) / double(pc.kvOps));
        }
        pc.kvNsPerOp = median(kv_ns);
    }
    return pc;
}

} // namespace perfbench
