/**
 * @file
 * Integration tests for the BlueDBM node and cluster: global address
 * space, the four access paths, and the remote read service.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/cluster.hh"
#include "sim/simulator.hh"

using namespace bluedbm;
using core::Cluster;
using core::ClusterParams;
using core::GlobalAddress;
using flash::PageBuffer;
using sim::Tick;

namespace {

ClusterParams
tinyCluster(unsigned nodes)
{
    ClusterParams p;
    p.topology = nodes == 2 ? net::Topology::line(2)
                            : net::Topology::ring(nodes, 2);
    p.node.geometry = flash::Geometry::tiny();
    p.node.timing = flash::Timing::fast();
    p.node.cards = 2;
    p.node.controllerTags = 64;
    return p;
}

} // namespace

TEST(Cluster, GlobalAddressRoundTrip)
{
    sim::Simulator sim;
    Cluster cluster(sim, tinyCluster(4));
    std::uint64_t pages = cluster.globalPages();
    EXPECT_EQ(pages, 4ull * 2 *
                  flash::Geometry::tiny().pages());
    for (std::uint64_t i = 0; i < pages; i += pages / 97 + 1) {
        GlobalAddress ga = cluster.globalPage(i);
        EXPECT_LT(ga.node, 4);
        EXPECT_LT(ga.card, 2);
        EXPECT_TRUE(ga.addr.validFor(flash::Geometry::tiny()));
        EXPECT_EQ(cluster.globalIndex(ga), i);
    }
}

TEST(Cluster, ConsecutiveGlobalPagesSpreadAcrossNodes)
{
    sim::Simulator sim;
    Cluster cluster(sim, tinyCluster(4));
    std::set<net::NodeId> nodes;
    for (std::uint64_t i = 0; i < 4; ++i)
        nodes.insert(cluster.globalPage(i).node);
    EXPECT_EQ(nodes.size(), 4u);
}

TEST(Cluster, IspReadLocalReturnsData)
{
    sim::Simulator sim;
    Cluster cluster(sim, tinyCluster(2));
    flash::Address addr{0, 0, 0, 0};
    PageBuffer expect =
        cluster.node(0).card(0).nand().store().read(addr);
    PageBuffer got;
    cluster.node(0).ispReadLocal(0, addr,
                                 [&](PageBuffer d) {
        got = std::move(d);
    });
    sim.run();
    EXPECT_EQ(got, expect);
}

TEST(Cluster, IspReadRemoteReturnsRemoteData)
{
    sim::Simulator sim;
    Cluster cluster(sim, tinyCluster(2));
    flash::Address addr{1, 0, 2, 3};
    PageBuffer expect =
        cluster.node(1).card(1).nand().store().read(addr);
    PageBuffer got;
    cluster.node(0).ispReadRemote(1, 1, addr,
                                  [&](PageBuffer d) {
        got = std::move(d);
    });
    sim.run();
    EXPECT_EQ(got, expect);
    EXPECT_EQ(cluster.node(1).remoteReadsServed(), 1u);
}

TEST(Cluster, AccessPathLatencyOrdering)
{
    // The paper's central latency result (figure 12): ISP-F beats
    // H-F beats H-RH-F; H-D sits between H-F and H-RH-F.
    sim::Simulator sim;
    Cluster cluster(sim, tinyCluster(2));
    flash::Address addr{0, 0, 0, 0};

    auto timed = [&](auto issue) {
        Tick start = sim.now();
        bool done = false;
        Tick at = 0;
        issue([&](PageBuffer) {
            done = true;
            at = sim.now();
        });
        sim.run();
        EXPECT_TRUE(done);
        return at - start;
    };

    Tick isp_f = timed([&](auto cb) {
        cluster.node(0).ispReadRemote(1, 0, addr, cb);
    });
    Tick h_f = timed([&](auto cb) {
        cluster.node(0).hostReadRemote(1, 0, addr, cb);
    });
    Tick h_rh_f = timed([&](auto cb) {
        cluster.node(0).hostReadRemoteViaHost(1, 0, addr, cb);
    });
    Tick h_d = timed([&](auto cb) {
        cluster.node(0).hostReadRemoteDram(
            1, flash::Geometry::tiny().pageSize, cb);
    });

    EXPECT_LT(isp_f, h_f);
    EXPECT_LT(h_f, h_rh_f);
    EXPECT_LT(h_d, h_rh_f); // no storage access
    EXPECT_GT(h_d, h_f - h_f / 2);
}

TEST(Cluster, HostReadLocalIncludesSoftwareCosts)
{
    sim::Simulator sim;
    Cluster cluster(sim, tinyCluster(2));
    flash::Address addr{0, 0, 0, 0};

    Tick isp_at = 0, host_at = 0;
    cluster.node(0).ispReadLocal(0, addr,
                                 [&](PageBuffer) {
        isp_at = sim.now();
    });
    sim.run();
    Tick base = sim.now();
    cluster.node(0).hostReadLocal(0, addr,
                                  [&](PageBuffer) {
        host_at = sim.now();
    });
    sim.run();
    const auto &sw = cluster.node(0).software();
    const auto &pcie = cluster.node(0).params().pcie;
    Tick sw_cost = sw.requestSetup + pcie.rpcLatency +
        pcie.interruptLatency;
    EXPECT_GT(host_at - base, isp_at + sw_cost - sim::usToTicks(1));
}

TEST(Cluster, ManyRemoteReadsAllComplete)
{
    sim::Simulator sim;
    Cluster cluster(sim, tinyCluster(4));
    int done = 0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
        GlobalAddress ga = cluster.globalPage(
            std::uint64_t(i) * 37 % cluster.globalPages());
        cluster.node(0).ispReadRemote(ga.node, ga.card, ga.addr,
                                      [&](PageBuffer) { ++done; });
    }
    sim.run();
    EXPECT_EQ(done, n);
}

TEST(Cluster, RemoteDramReadSkipsStorage)
{
    sim::Simulator sim;
    Cluster cluster(sim, tinyCluster(2));
    bool done = false;
    cluster.node(0).hostReadRemoteDram(1, 4096, [&](PageBuffer d) {
        EXPECT_EQ(d.size(), 4096u);
        done = true;
    });
    sim.run();
    EXPECT_TRUE(done);
    // No flash reads happened anywhere.
    EXPECT_EQ(cluster.node(1).card(0).nand().pagesRead(), 0u);
    EXPECT_EQ(cluster.node(1).card(1).nand().pagesRead(), 0u);
}

TEST(Cluster, CapacityMatchesPaperScale)
{
    // With default geometry, a 20-node cluster holds 20 TB of flash
    // (the paper's headline capacity).
    ClusterParams p;
    p.topology = net::Topology::ring(20, 4);
    sim::Simulator sim;
    // Do not build full-size nodes (memory); just check arithmetic.
    std::uint64_t per_card = flash::Geometry{}.capacityBytes();
    std::uint64_t total = per_card * 2 * 20;
    EXPECT_NEAR(double(total) / 1e12, 22.0, 1.0);
}
