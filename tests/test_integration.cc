/**
 * @file
 * Cross-module integration tests: the whole appliance exercised end
 * to end -- cluster-scale smoke, FS + ISP + network combined flows,
 * and failure injection.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analytics/text.hh"
#include "core/cluster.hh"
#include "isp/string_search.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace bluedbm;
using core::Cluster;
using core::ClusterParams;
using core::GlobalAddress;
using flash::PageBuffer;
using sim::Tick;

namespace {

ClusterParams
smallCluster(net::Topology topo)
{
    ClusterParams p;
    p.topology = std::move(topo);
    p.node.geometry = flash::Geometry::tiny();
    p.node.timing = flash::Timing::fast();
    return p;
}

} // namespace

TEST(Integration, TwentyNodeRingSmoke)
{
    // The paper's rack: 20 nodes on a ring with 4 lanes each way.
    sim::Simulator sim;
    Cluster cluster(sim, smallCluster(net::Topology::ring(20, 4)));
    ASSERT_EQ(cluster.size(), 20u);

    // Every node reads a page from every other node's flash via the
    // integrated network.
    int done = 0, expected = 0;
    for (unsigned src = 0; src < 20; ++src) {
        for (unsigned dst = 0; dst < 20; ++dst) {
            if (src == dst)
                continue;
            ++expected;
            flash::Address addr{0, 0, 0, std::uint32_t(src % 16)};
            cluster.node(src).ispReadRemote(
                net::NodeId(dst), dst % 2, addr,
                [&](PageBuffer page) {
                EXPECT_FALSE(page.empty());
                ++done;
            });
        }
    }
    sim.run();
    EXPECT_EQ(done, expected);
}

TEST(Integration, RemoteReadsReturnExactRemoteBytes)
{
    // Write distinct data on every node via the FS, then audit the
    // whole cluster from node 0 through raw remote reads.
    sim::Simulator sim;
    Cluster cluster(sim, smallCluster(net::Topology::ring(4, 2)));
    std::map<unsigned, std::vector<std::uint8_t>> payloads;
    for (unsigned n = 0; n < 4; ++n) {
        auto &node = cluster.node(n);
        ASSERT_TRUE(node.fs().create("shard"));
        std::vector<std::uint8_t> data(3000 + n * 100);
        sim::Rng rng(n);
        for (auto &b : data)
            b = std::uint8_t(rng.next());
        payloads[n] = data;
        bool ok = false;
        node.fs().append("shard", data, [&](bool o) { ok = o; });
        sim.run();
        ASSERT_TRUE(ok);
    }

    for (unsigned n = 0; n < 4; ++n) {
        auto addrs = cluster.node(n).fs().physicalAddresses("shard");
        std::vector<std::uint8_t> got;
        for (const auto &a : addrs) {
            cluster.node(0).ispReadRemote(
                net::NodeId(n), 0, a, [&](PageBuffer page) {
                got.insert(got.end(), page.begin(), page.end());
            });
            sim.run();
        }
        got.resize(payloads[n].size());
        EXPECT_EQ(got, payloads[n]) << "node " << n;
    }
}

TEST(Integration, DistributedSearchAcrossNodes)
{
    // Each node stores a shard with planted needles; in-store
    // engines on every node search their shard concurrently and the
    // host merges results -- a cluster-wide grep.
    sim::Simulator sim;
    Cluster cluster(sim, smallCluster(net::Topology::ring(4, 2)));
    std::string needle = "Gl0bal?";
    std::map<unsigned, std::vector<std::uint64_t>> expected;

    for (unsigned n = 0; n < 4; ++n) {
        auto corpus = analytics::makeCorpus(30000, needle, 5,
                                            500 + n);
        expected[n] = corpus.needlePositions;
        auto &node = cluster.node(n);
        ASSERT_TRUE(node.fs().create("hay"));
        bool ok = false;
        node.fs().append("hay", corpus.text,
                         [&](bool o) { ok = o; });
        sim.run();
        ASSERT_TRUE(ok);
        node.ispServer(0).defineHandle(
            3, node.fs().physicalAddresses("hay"));
    }

    std::map<unsigned, std::vector<std::uint64_t>> found;
    std::vector<std::unique_ptr<isp::StringSearchEngine>> engines;
    for (unsigned n = 0; n < 4; ++n) {
        engines.emplace_back(std::make_unique<isp::StringSearchEngine>(
            sim, cluster.node(n).ispServer(0)));
        engines.back()->search(
            3, cluster.node(n).fs().size("hay"),
            flash::Geometry::tiny().pageSize, needle,
            [&found, n](isp::SearchResult r) {
            found[n] = std::move(r.positions);
        });
    }
    sim.run();
    for (unsigned n = 0; n < 4; ++n)
        EXPECT_EQ(found[n], expected[n]) << "node " << n;
}

TEST(Integration, UncorrectableErrorsSurfaceThroughFullStack)
{
    // Failure injection: crank the bit error rate so high that
    // multi-bit errors occur, and verify the status propagates from
    // NAND through controller, splitter and flash server.
    sim::Simulator sim;
    Cluster cluster(sim, smallCluster(net::Topology::line(2)));
    auto &node = cluster.node(0);
    node.card(0).nand().setBitErrorRate(2e-4);

    int uncorrectable = 0, total = 300;
    for (int i = 0; i < total; ++i) {
        flash::Address addr = flash::Address::fromLinear(
            flash::Geometry::tiny(),
            std::uint64_t(i) % flash::Geometry::tiny().pages());
        node.ispServer(0).readPage(
            unsigned(i % 4), addr,
            [&](PageBuffer, flash::Status st) {
            if (st == flash::Status::Uncorrectable)
                ++uncorrectable;
        });
    }
    sim.run();
    // BER 2e-4 over 4608-bit codewords: double-bit word errors are
    // common enough to observe in 300 pages.
    EXPECT_GT(uncorrectable, 0);
    EXPECT_GT(node.card(0).nand().bitsCorrected(), 0u);
}

TEST(Integration, TopologyConfigRoundTripDrivesCluster)
{
    // Build a cluster from a parsed config file (the paper's way of
    // populating routing tables) and run traffic over it.
    std::string config =
        "# three nodes in a triangle\n"
        "nodes 3\n"
        "ports 8\n"
        "link 0 0 1 0\n"
        "link 1 1 2 0\n"
        "link 2 1 0 1\n";
    auto topo = net::Topology::fromConfig(config);
    EXPECT_EQ(topo.nodes, 3u);
    EXPECT_EQ(topo.links.size(), 3u);
    // Round trip through the serializer.
    auto again = net::Topology::fromConfig(topo.toConfig());
    EXPECT_EQ(again.links.size(), topo.links.size());

    sim::Simulator sim;
    Cluster cluster(sim, smallCluster(topo));
    int got = 0;
    for (unsigned s = 0; s < 3; ++s) {
        for (unsigned d = 0; d < 3; ++d) {
            if (s == d)
                continue;
            cluster.node(s).ispReadRemote(
                net::NodeId(d), 0, flash::Address{0, 0, 0, 0},
                [&](PageBuffer) { ++got; });
        }
    }
    sim.run();
    EXPECT_EQ(got, 6);
}

TEST(IntegrationDeath, MalformedConfigsAreFatal)
{
    EXPECT_DEATH(net::Topology::fromConfig("link 0 0 1 0\n"),
                 "missing the 'nodes'");
    EXPECT_DEATH(net::Topology::fromConfig("nodes 2\nlink 0 0\n"),
                 "link needs");
    EXPECT_DEATH(net::Topology::fromConfig("nodes 2\nfrobnicate\n"),
                 "unknown directive");
    EXPECT_DEATH(
        net::Topology::fromConfig("nodes 2\nlink 0 0 1 0 9\n"),
        "trailing junk");
    EXPECT_DEATH(net::Topology::fromConfig("nodes 0\n"),
                 "bad node count");
}

TEST(Integration, FsSurvivesConcurrentRemoteTraffic)
{
    // Local FS writes and remote agent reads share card 0's
    // controller; everything must complete and verify.
    sim::Simulator sim;
    Cluster cluster(sim, smallCluster(net::Topology::line(2)));
    auto &n0 = cluster.node(0);
    const auto page = flash::Geometry::tiny().pageSize;

    ASSERT_TRUE(n0.fs().create("busy"));
    bool fs_ok = false;
    n0.fs().append("busy", std::vector<std::uint8_t>(page * 3, 0x33),
                   [&](bool ok) { fs_ok = ok; });

    // Meanwhile node 1 hammers node 0's agent port on the FS card.
    int remote_done = 0;
    for (int i = 0; i < 50; ++i) {
        cluster.node(1).ispReadRemote(
            0, 0, flash::Address{1, 0, 1, std::uint32_t(i % 16)},
            [&](PageBuffer) { ++remote_done; });
    }
    sim.run();
    EXPECT_TRUE(fs_ok);
    EXPECT_EQ(remote_done, 50);

    auto read_back = [&](const std::string &name) {
        std::vector<std::uint8_t> got;
        n0.fs().read(name, 0, page * 3,
                     [&](std::vector<std::uint8_t> d, bool) {
            got = std::move(d);
        });
        sim.run();
        return got;
    };
    EXPECT_EQ(read_back("busy"),
              std::vector<std::uint8_t>(page * 3, 0x33));
}
