/**
 * @file
 * Unit and integration tests for the sharded key-value service:
 * shard storage semantics, consistent-hash routing with
 * replication, and the admission-controlled front-end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/cluster.hh"
#include "kv/kv_router.hh"
#include "kv/kv_service.hh"
#include "kv/kv_shard.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace bluedbm;
using flash::PageBuffer;
using kv::Key;
using kv::KvStatus;

namespace {

core::ClusterParams
kvCluster(unsigned nodes)
{
    core::ClusterParams p;
    p.topology = nodes == 2 ? net::Topology::line(2)
                            : net::Topology::ring(nodes, 2);
    p.node.geometry = flash::Geometry::tiny();
    p.node.timing = flash::Timing::fast();
    p.node.cards = 2;
    p.node.controllerTags = 64;
    p.network.endpoints = kv::kvRequiredEndpoints;
    return p;
}

PageBuffer
val(std::uint8_t fill, std::size_t n = 64)
{
    return PageBuffer(n, fill);
}

} // namespace

// ---------------------------------------------------------------- //
// KvShard
// ---------------------------------------------------------------- //

TEST(KvShard, PutGetRoundTrip)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvShard shard(sim, cluster.node(0).fs(), "t");

    bool put_ok = false;
    shard.put(7, val(0xaa), [&](KvStatus st) {
        put_ok = st == KvStatus::Ok;
    });
    sim.run();
    EXPECT_TRUE(put_ok);
    EXPECT_TRUE(shard.contains(7));
    EXPECT_EQ(shard.keyCount(), 1u);

    PageBuffer got;
    KvStatus st = KvStatus::Error;
    shard.get(7, [&](PageBuffer v, KvStatus s, std::uint64_t) {
        got = std::move(v);
        st = s;
    });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(got, val(0xaa));
}

TEST(KvShard, ReadYourWritesBeforeDurable)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvShard shard(sim, cluster.node(0).fs(), "t");

    // Get issued immediately after put, before the log append has
    // any chance to reach flash: served from the memtable.
    shard.put(1, val(0x11), [](KvStatus) {});
    PageBuffer got;
    shard.get(1, [&](PageBuffer v, KvStatus, std::uint64_t) {
        got = std::move(v);
    });
    sim.run();
    EXPECT_EQ(got, val(0x11));
    EXPECT_GE(shard.memtableHits(), 1u);

    // After the append is durable the memtable entry retires and
    // the value comes back from flash.
    PageBuffer again;
    shard.get(1, [&](PageBuffer v, KvStatus, std::uint64_t) {
        again = std::move(v);
    });
    sim.run();
    EXPECT_EQ(again, val(0x11));
    EXPECT_EQ(shard.memtableHits(), 1u);
}

TEST(KvShard, OverwriteReturnsLatest)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvShard shard(sim, cluster.node(0).fs(), "t");

    shard.put(3, val(0x01), [](KvStatus) {});
    sim.run();
    shard.put(3, val(0x02), [](KvStatus) {});
    sim.run();
    PageBuffer got;
    shard.get(3, [&](PageBuffer v, KvStatus, std::uint64_t) {
        got = std::move(v);
    });
    sim.run();
    EXPECT_EQ(got, val(0x02));
    EXPECT_EQ(shard.keyCount(), 1u);
    EXPECT_EQ(shard.liveBytes(), 64u);
    EXPECT_GT(shard.logBytes(), shard.liveBytes());
}

TEST(KvShard, DeleteThenMiss)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvShard shard(sim, cluster.node(0).fs(), "t");

    shard.put(5, val(0x05), [](KvStatus) {});
    sim.run();
    KvStatus del_st = KvStatus::Error;
    shard.del(5, [&](KvStatus st) { del_st = st; });
    sim.run();
    EXPECT_EQ(del_st, KvStatus::Ok);
    EXPECT_FALSE(shard.contains(5));

    KvStatus get_st = KvStatus::Ok;
    shard.get(5, [&](PageBuffer, KvStatus st, std::uint64_t) {
        get_st = st;
    });
    KvStatus del2_st = KvStatus::Ok;
    shard.del(5, [&](KvStatus st) { del2_st = st; });
    sim.run();
    EXPECT_EQ(get_st, KvStatus::NotFound);
    EXPECT_EQ(del2_st, KvStatus::NotFound);
}

TEST(KvShard, DeleteAndReputWhileAppendInFlight)
{
    // Regression: a still-in-flight append of the key's previous
    // life must not retire the new life's memtable entry.
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvShard shard(sim, cluster.node(0).fs(), "t");

    shard.put(9, val(0x0a), [](KvStatus) {});
    shard.del(9, [](KvStatus) {});
    shard.put(9, val(0x0b), [](KvStatus) {});
    sim.run();

    PageBuffer got;
    KvStatus st = KvStatus::Error;
    shard.get(9, [&](PageBuffer v, KvStatus s, std::uint64_t) {
        got = std::move(v);
        st = s;
    });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(got, val(0x0b));
}

// ---------------------------------------------------------------- //
// KvRouter
// ---------------------------------------------------------------- //

TEST(KvRouter, OwnersAreDeterministicAndDistinct)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvParams kp;
    kp.replication = 3;
    kv::KvRouter router(sim, cluster, kp);

    for (Key k = 0; k < 200; ++k) {
        auto own = router.owners(k);
        ASSERT_EQ(own.size(), 3u);
        std::set<net::NodeId> uniq(own.begin(), own.end());
        EXPECT_EQ(uniq.size(), 3u);
        EXPECT_EQ(own, router.owners(k));
        for (net::NodeId n : own)
            EXPECT_LT(n, 4u);
    }
}

TEST(KvRouter, PrimariesBalanceAcrossNodes)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, kv::KvParams{});

    std::vector<unsigned> counts(4, 0);
    const unsigned keys = 4000;
    for (Key k = 0; k < keys; ++k)
        ++counts[router.owners(k)[0]];
    for (unsigned n = 0; n < 4; ++n) {
        // Mean is 25%; consistent hashing with 64 vnodes stays well
        // inside a 2x envelope.
        EXPECT_GT(counts[n], keys / 8) << "node " << n;
        EXPECT_LT(counts[n], keys / 2) << "node " << n;
    }
}

TEST(KvRouter, PutReplicatesToAllOwners)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, kv::KvParams{});

    const Key key = 42;
    KvStatus st = KvStatus::Error;
    router.put(0, key, val(0x42), [&](KvStatus s) { st = s; });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);

    auto own = router.owners(key);
    ASSERT_EQ(own.size(), 2u);
    for (net::NodeId n : own)
        EXPECT_TRUE(router.shard(n).contains(key))
            << "replica on node " << n;
    // Only the owners hold it.
    for (unsigned n = 0; n < 4; ++n) {
        if (std::find(own.begin(), own.end(), n) == own.end()) {
            EXPECT_FALSE(
                router.shard(net::NodeId(n)).contains(key));
        }
    }
}

TEST(KvRouter, RemoteGetCrossesNetwork)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, kv::KvParams{});

    // A key owned by neither replica on node 0.
    Key key = 0;
    while (true) {
        auto own = router.owners(key);
        if (std::find(own.begin(), own.end(), 0) == own.end())
            break;
        ++key;
    }
    router.put(0, key, val(0x77), [](KvStatus) {});
    sim.run();
    std::uint64_t remote_before = router.remoteOps();

    PageBuffer got;
    KvStatus st = KvStatus::Error;
    router.get(0, key, [&](PageBuffer v, KvStatus s) {
        got = std::move(v);
        st = s;
    });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(got, val(0x77));
    EXPECT_GT(router.remoteOps(), remote_before);
}

TEST(KvRouter, ReadPrefersLocalReplica)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, kv::KvParams{});

    // A key with a replica on node 2.
    Key key = 0;
    while (true) {
        auto own = router.owners(key);
        if (std::find(own.begin(), own.end(), 2) != own.end())
            break;
        ++key;
    }
    EXPECT_EQ(router.readReplica(2, key), 2u);
    router.put(2, key, val(0x33), [](KvStatus) {});
    sim.run();

    std::uint64_t local_before = router.localOps();
    PageBuffer got;
    router.get(2, key, [&](PageBuffer v, KvStatus) {
        got = std::move(v);
    });
    sim.run();
    EXPECT_EQ(got, val(0x33));
    EXPECT_GT(router.localOps(), local_before);
}

TEST(KvRouter, DeleteRemovesEveryReplica)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, kv::KvParams{});

    const Key key = 19;
    router.put(1, key, val(0x19), [](KvStatus) {});
    sim.run();
    KvStatus st = KvStatus::Error;
    router.del(3, key, [&](KvStatus s) { st = s; });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);
    for (unsigned n = 0; n < 4; ++n)
        EXPECT_FALSE(router.shard(net::NodeId(n)).contains(key));

    KvStatus get_st = KvStatus::Ok;
    router.get(0, key, [&](PageBuffer, KvStatus s) { get_st = s; });
    sim.run();
    EXPECT_EQ(get_st, KvStatus::NotFound);
}

TEST(KvRouter, MultiGetAlignsValuesWithKeys)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, kv::KvParams{});

    router.put(0, 1, val(0x01), [](KvStatus) {});
    router.put(1, 2, val(0x02), [](KvStatus) {});
    sim.run();

    std::vector<PageBuffer> values;
    std::vector<KvStatus> sts;
    router.multiGet(3, {2, 99, 1},
                    [&](std::vector<PageBuffer> v,
                        std::vector<KvStatus> s) {
        values = std::move(v);
        sts = std::move(s);
    });
    sim.run();
    ASSERT_EQ(values.size(), 3u);
    EXPECT_EQ(sts[0], KvStatus::Ok);
    EXPECT_EQ(values[0], val(0x02));
    EXPECT_EQ(sts[1], KvStatus::NotFound);
    EXPECT_EQ(sts[2], KvStatus::Ok);
    EXPECT_EQ(values[2], val(0x01));
}

TEST(KvRouter, ManyMixedOpsAllComplete)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, kv::KvParams{});

    const int keys = 150;
    int acks = 0;
    for (int k = 0; k < keys; ++k) {
        router.put(net::NodeId(k % 4), Key(k),
                   val(std::uint8_t(k), 32),
                   [&](KvStatus st) {
            EXPECT_EQ(st, KvStatus::Ok);
            ++acks;
        });
    }
    sim.run();
    EXPECT_EQ(acks, keys);

    int gets = 0;
    for (int k = 0; k < keys; ++k) {
        router.get(net::NodeId((k + 1) % 4), Key(k),
                   [&, k](PageBuffer v, KvStatus st) {
            EXPECT_EQ(st, KvStatus::Ok);
            EXPECT_EQ(v, val(std::uint8_t(k), 32));
            ++gets;
        });
    }
    sim.run();
    EXPECT_EQ(gets, keys);
}

// ---------------------------------------------------------------- //
// KvService
// ---------------------------------------------------------------- //

TEST(KvService, WindowBoundsInFlight)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvRouter router(sim, cluster, kv::KvParams{});
    kv::KvService service(sim, router);

    router.put(0, 1, val(0x01), [](KvStatus) {});
    sim.run();

    kv::KvService::ClientParams cp;
    cp.window = 2;
    cp.queueCap = 64;
    auto client = service.addClient(0, cp);

    int done = 0;
    for (int i = 0; i < 10; ++i) {
        service.get(client, 1,
                    [&](PageBuffer, KvStatus st) {
            EXPECT_EQ(st, KvStatus::Ok);
            ++done;
        });
    }
    // Submission is synchronous: exactly window ops dispatched, the
    // rest parked in the client's queue.
    EXPECT_EQ(service.inFlight(client), 2u);
    EXPECT_EQ(service.queued(client), 8u);
    sim.run();
    EXPECT_EQ(done, 10);
    EXPECT_EQ(service.inFlight(client), 0u);
    EXPECT_EQ(service.admitted(), 10u);
    EXPECT_EQ(service.rejected(), 0u);
}

TEST(KvService, AdmissionRejectsBeyondQueueCap)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvRouter router(sim, cluster, kv::KvParams{});
    kv::KvService service(sim, router);

    kv::KvService::ClientParams cp;
    cp.window = 1;
    cp.queueCap = 2;
    auto client = service.addClient(0, cp);

    int overloaded = 0, completed = 0;
    for (int i = 0; i < 6; ++i) {
        service.put(client, Key(i), val(std::uint8_t(i), 16),
                    [&](KvStatus st) {
            ++completed;
            if (st == KvStatus::Overloaded)
                ++overloaded;
        });
    }
    sim.run();
    EXPECT_EQ(completed, 6);
    // 1 in flight + 2 queued admitted; 3 rejected.
    EXPECT_EQ(overloaded, 3);
    EXPECT_EQ(service.rejected(), 3u);
    EXPECT_EQ(service.admitted(), 3u);
}

TEST(KvService, MultiGetCountsAsOneWindowSlot)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, kv::KvParams{});
    kv::KvService service(sim, router);

    for (Key k = 0; k < 8; ++k)
        router.put(0, k, val(std::uint8_t(k), 16), [](KvStatus) {});
    sim.run();

    kv::KvService::ClientParams cp;
    cp.window = 1;
    auto client = service.addClient(1, cp);
    int done = 0;
    service.multiGet(client, {0, 1, 2, 3, 4, 5, 6, 7},
                     [&](std::vector<PageBuffer> values,
                         std::vector<KvStatus> sts) {
        EXPECT_EQ(values.size(), 8u);
        for (KvStatus st : sts)
            EXPECT_EQ(st, KvStatus::Ok);
        ++done;
    });
    EXPECT_EQ(service.inFlight(client), 1u);
    sim.run();
    EXPECT_EQ(done, 1);
}

TEST(KvService, RejectedMultiGetReportsPerKeyOverload)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvRouter router(sim, cluster, kv::KvParams{});
    kv::KvService service(sim, router);

    kv::KvService::ClientParams cp;
    cp.window = 1;
    cp.queueCap = 0;
    auto client = service.addClient(0, cp);

    // queueCap 0: everything beyond... even the first op needs a
    // queue slot, so it is rejected outright.
    bool saw = false;
    service.multiGet(client, {1, 2, 3},
                     [&](std::vector<PageBuffer> values,
                         std::vector<KvStatus> sts) {
        saw = true;
        EXPECT_EQ(values.size(), 3u);
        for (KvStatus st : sts)
            EXPECT_EQ(st, KvStatus::Overloaded);
    });
    sim.run();
    EXPECT_TRUE(saw);
}

// ---------------------------------------------------------------- //
// Append-failure durability (fault injection)
// ---------------------------------------------------------------- //

namespace {

/** Fail every page program on @p node's FS flash server. */
void
armWriteFault(core::Cluster &cluster, unsigned node)
{
    cluster.node(node).hostServer(0).setWriteFault(
        [](const flash::Address &) { return true; });
}

void
disarmWriteFault(core::Cluster &cluster, unsigned node)
{
    cluster.node(node).hostServer(0).setWriteFault(nullptr);
}

} // namespace

TEST(KvShard, FailedAppendRollsBackToLastDurable)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvShard shard(sim, cluster.node(0).fs(), "t");

    shard.put(7, val(0xaa), [](KvStatus) {});
    sim.run();
    std::uint64_t log_bytes = shard.logBytes();

    // The overwrite's append fails: the put must ack Error and the
    // key must roll back to the durable 0xaa version -- never the
    // never-written 0xbb flash bytes.
    armWriteFault(cluster, 0);
    KvStatus put_st = KvStatus::Ok;
    shard.put(7, val(0xbb), [&](KvStatus st) { put_st = st; });
    sim.run();
    EXPECT_EQ(put_st, KvStatus::Error);
    EXPECT_EQ(shard.failedPuts(), 1u);
    EXPECT_EQ(shard.liveBytes(), 64u);
    EXPECT_EQ(shard.logBytes(), log_bytes);

    PageBuffer got;
    KvStatus st = KvStatus::Error;
    shard.get(7, [&](PageBuffer v, KvStatus s, std::uint64_t) {
        got = std::move(v);
        st = s;
    });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(got, val(0xaa));

    // Healthy again: the next put overwrites normally.
    disarmWriteFault(cluster, 0);
    shard.put(7, val(0xcc), [&](KvStatus s) { put_st = s; });
    sim.run();
    EXPECT_EQ(put_st, KvStatus::Ok);
    shard.get(7, [&](PageBuffer v, KvStatus, std::uint64_t) {
        got = std::move(v);
    });
    sim.run();
    EXPECT_EQ(got, val(0xcc));
}

TEST(KvShard, FailedFirstAppendLeavesKeyAbsent)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvShard shard(sim, cluster.node(0).fs(), "t");

    armWriteFault(cluster, 0);
    KvStatus put_st = KvStatus::Ok;
    shard.put(1, val(0x11), [&](KvStatus st) { put_st = st; });
    sim.run();
    EXPECT_EQ(put_st, KvStatus::Error);
    EXPECT_FALSE(shard.contains(1));
    EXPECT_EQ(shard.liveBytes(), 0u);
    EXPECT_EQ(shard.logBytes(), 0u);

    KvStatus get_st = KvStatus::Ok;
    shard.get(1, [&](PageBuffer, KvStatus st, std::uint64_t) {
        get_st = st;
    });
    sim.run();
    EXPECT_EQ(get_st, KvStatus::NotFound);
}

TEST(KvShard, ReadYourWritesDuringDoomedAppendThenRollback)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvShard shard(sim, cluster.node(0).fs(), "t");

    shard.put(3, val(0xaa), [](KvStatus) {});
    sim.run();

    // A get issued while the (doomed) append is in flight serves
    // the new value from the memtable: ordinary read-your-writes of
    // a write that subsequently fails. After the failure the key
    // rolls back.
    armWriteFault(cluster, 0);
    shard.put(3, val(0xbb), [](KvStatus) {});
    PageBuffer during;
    shard.get(3, [&](PageBuffer v, KvStatus, std::uint64_t) {
        during = std::move(v);
    });
    sim.run();
    EXPECT_EQ(during, val(0xbb));

    PageBuffer after;
    shard.get(3, [&](PageBuffer v, KvStatus, std::uint64_t) {
        after = std::move(v);
    });
    sim.run();
    EXPECT_EQ(after, val(0xaa));
}

TEST(KvShard, DeleteTombstoneBlocksRollbackResurrection)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvShard shard(sim, cluster.node(0).fs(), "t");

    shard.put(4, val(0xaa), [](KvStatus) {});
    sim.run();

    // Doomed overwrite, then a delete before the failure lands: the
    // failed append must not roll the key back to the (deleted)
    // 0xaa version.
    armWriteFault(cluster, 0);
    shard.put(4, val(0xbb), [](KvStatus) {});
    shard.del(4, [](KvStatus) {});
    sim.run();

    KvStatus get_st = KvStatus::Ok;
    shard.get(4, [&](PageBuffer, KvStatus st, std::uint64_t) {
        get_st = st;
    });
    sim.run();
    EXPECT_EQ(get_st, KvStatus::NotFound);
    EXPECT_FALSE(shard.contains(4));
}

// ---------------------------------------------------------------- //
// Dead-byte accounting: every dead log page is trimmed
// ---------------------------------------------------------------- //

namespace {

/** A value whose log record (header included) spans @p fraction
 * of a page, so records of one key pack pages exactly. */
PageBuffer
pageValue(fs::LogFs &fs, std::uint8_t fill, unsigned fraction = 1)
{
    return val(fill, fs.pageSize() / fraction - 12);
}

} // namespace

TEST(KvShard, DeleteDuringFailedAppendTrimsDurablePage)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    fs::LogFs &fs = cluster.node(0).fs();
    kv::KvShard shard(sim, fs, "t");

    shard.put(1, pageValue(fs, 0xaa), [](KvStatus) {});
    sim.run();

    // The overwrite is in flight when the delete lands, then fails:
    // the durable record it would have replaced is as dead as after
    // a quiescent delete, and its page must be trimmed.
    armWriteFault(cluster, 0);
    KvStatus put_st = KvStatus::Ok;
    shard.put(1, pageValue(fs, 0xbb), [&](KvStatus s) { put_st = s; });
    shard.del(1, [](KvStatus) {});
    sim.run();
    EXPECT_EQ(put_st, KvStatus::Error);
    EXPECT_FALSE(shard.contains(1));
    EXPECT_EQ(fs.trimmedPages(), 1u);
}

TEST(KvShard, AppendSupersededByDeleteIsCharged)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    fs::LogFs &fs = cluster.node(0).fs();
    kv::KvShard shard(sim, fs, "t");

    shard.put(1, pageValue(fs, 0x01), [](KvStatus) {});
    sim.run();
    // Put A is in flight when the key is deleted and re-put as C:
    // A lands dead on arrival. With C deleted too, all three pages
    // hold only dead records.
    shard.put(1, pageValue(fs, 0x0a), [](KvStatus) {});
    shard.del(1, [](KvStatus) {});
    shard.put(1, pageValue(fs, 0x0c), [](KvStatus) {});
    sim.run();
    shard.del(1, [](KvStatus) {});
    sim.run();
    EXPECT_EQ(shard.liveBytes(), 0u);
    EXPECT_EQ(fs.trimmedPages(), 3u);
}

TEST(KvShard, TwoFailedAppendsAreBothCharged)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    fs::LogFs &fs = cluster.node(0).fs();
    kv::KvShard shard(sim, fs, "t");

    // Half-page records: X fills the front of page 0.
    shard.put(1, pageValue(fs, 0x01, 2), [](KvStatus) {});
    sim.run();
    // A (back of page 0) and B (front of page 1) both fail; the key
    // rolls back to X.
    armWriteFault(cluster, 0);
    shard.put(1, pageValue(fs, 0x0a, 2), [](KvStatus) {});
    shard.put(1, pageValue(fs, 0x0b, 2), [](KvStatus) {});
    sim.run();
    EXPECT_EQ(shard.failedPuts(), 2u);
    // C (back of page 1) then D (front of page 2) land: C kills X,
    // D kills C. Pages 0 (X + A) and 1 (B + C) are fully dead.
    disarmWriteFault(cluster, 0);
    shard.put(1, pageValue(fs, 0x0c, 2), [](KvStatus) {});
    sim.run();
    shard.put(1, pageValue(fs, 0x0d, 2), [](KvStatus) {});
    sim.run();
    EXPECT_EQ(fs.trimmedPages(), 2u);

    PageBuffer got;
    shard.get(1, [&](PageBuffer v, KvStatus, std::uint64_t) {
        got = std::move(v);
    });
    sim.run();
    EXPECT_EQ(got, pageValue(fs, 0x0d, 2));
}

TEST(KvShard, DeleteUnderTwoAppendsChargesEachOnce)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    fs::LogFs &fs = cluster.node(0).fs();
    kv::KvShard shard(sim, fs, "t");

    // Quarter-page records. A and B are in flight when the key is
    // deleted; both land dead. Charging A a second time (as B's
    // superseded predecessor) would count page 0 fully dead once C
    // and D follow, and trim it under the live record D.
    shard.put(1, pageValue(fs, 0x0a, 4), [](KvStatus) {});
    shard.put(1, pageValue(fs, 0x0b, 4), [](KvStatus) {});
    shard.del(1, [](KvStatus) {});
    sim.run();
    shard.put(1, pageValue(fs, 0x0c, 4), [](KvStatus) {});
    sim.run();
    shard.put(1, pageValue(fs, 0x0d, 4), [](KvStatus) {});
    sim.run();
    EXPECT_EQ(fs.trimmedPages(), 0u);

    PageBuffer got;
    KvStatus st = KvStatus::Error;
    shard.get(1, [&](PageBuffer v, KvStatus s, std::uint64_t) {
        got = std::move(v);
        st = s;
    });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(got, pageValue(fs, 0x0d, 4));
}

// ---------------------------------------------------------------- //
// KvShard against a reference model
// ---------------------------------------------------------------- //

namespace {

/** One key of the reference model: a live value or a tombstone. */
struct ModelKey
{
    bool live = false;
    std::uint64_t stamp = 0;
    PageBuffer value;
};

using Model = std::map<Key, ModelKey>;

/**
 * Compare every quiescent observable of @p shard with @p model:
 * counts, byte totals, per-key repair state, the hash-ordered range
 * enumeration, and a get of every key in [0, keys).
 */
void
checkAgainstModel(sim::Simulator &sim, kv::KvShard &shard,
                  const Model &model, Key keys,
                  std::uint64_t log_bytes)
{
    std::size_t live = 0;
    std::uint64_t live_bytes = 0;
    std::vector<std::pair<std::uint64_t, kv::KvShard::RangeEntry>>
        want;
    for (const auto &[key, mk] : model) {
        if (mk.live) {
            ++live;
            live_bytes += mk.value.size();
        }
        want.push_back({kv::mix64(key),
                        kv::KvShard::RangeEntry{key, mk.stamp,
                                                mk.live, false}});
    }
    std::sort(want.begin(), want.end(),
              [](const auto &a, const auto &b) {
        return a.first < b.first;
    });
    EXPECT_EQ(shard.keyCount(), live);
    EXPECT_EQ(shard.liveBytes(), live_bytes);
    EXPECT_EQ(shard.logBytes(), log_bytes);
    EXPECT_EQ(shard.repairIndexSize(), model.size());

    std::vector<kv::KvShard::RangeEntry> got;
    shard.rangeEntries(0, ~std::uint64_t(0), got);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].key, want[i].second.key);
        EXPECT_EQ(got[i].stamp, want[i].second.stamp);
        EXPECT_EQ(got[i].live, want[i].second.live);
        EXPECT_FALSE(got[i].corrupt);
    }

    for (Key k = 0; k < keys; ++k) {
        auto it = model.find(k);
        bool known = it != model.end();
        bool live_k = known && it->second.live;
        EXPECT_EQ(shard.contains(k), live_k) << "key " << k;
        std::uint64_t stamp = 0;
        bool is_live = false;
        bool corrupt = true;
        EXPECT_EQ(shard.keyState(k, &stamp, &is_live, &corrupt), known)
            << "key " << k;
        if (known) {
            EXPECT_EQ(stamp, it->second.stamp) << "key " << k;
            EXPECT_EQ(is_live, it->second.live) << "key " << k;
            EXPECT_FALSE(corrupt) << "key " << k;
        }
        bool called = false;
        shard.get(k, [&, k, live_k](PageBuffer v, KvStatus st,
                                    std::uint64_t) {
            called = true;
            EXPECT_EQ(st, live_k ? KvStatus::Ok : KvStatus::NotFound)
                << "key " << k;
            if (live_k) {
                EXPECT_EQ(v, model.at(k).value) << "key " << k;
            }
        });
        sim.run();
        EXPECT_TRUE(called) << "key " << k;
    }
}

/**
 * Seeded random batches of put, del, get, repairPut, repairDel and
 * pruneTombstones, each batch issued at one instant and run to
 * quiescence with the write fault either armed (every append of the
 * batch fails) or disarmed (every append lands). Inside a batch the
 * model tracks the optimistic state each op observes. In a failed
 * batch a key whose last change was a put rolls back to its durable
 * state: the last state not produced by a put of that batch.
 */
void
runShardModel(std::uint64_t seed)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvShard shard(sim, cluster.node(0).fs(), "t");
    sim::Rng rng(seed);
    constexpr Key keys = 4;
    Model model;
    std::uint64_t stamp = 0;
    std::uint64_t log_bytes = 0;

    for (int batch = 0; batch < 150; ++batch) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        bool fault = rng.below(4) == 0;
        if (fault)
            armWriteFault(cluster, 0);
        else
            disarmWriteFault(cluster, 0);
        Model durable = model;
        std::set<Key> put_issued;   // keys with an append in flight
        std::set<Key> last_was_put; // keys a failure would roll back
        KvStatus put_st = fault ? KvStatus::Error : KvStatus::Ok;
        int issued = 0;
        int acked = 0;
        auto expect = [&acked](KvStatus want) {
            return [&acked, want](KvStatus st) {
                ++acked;
                EXPECT_EQ(st, want);
            };
        };
        // A repair push applies only past every stamp the key has.
        auto newer = [&model](Key k, std::uint64_t s) {
            auto it = model.find(k);
            return it == model.end() || it->second.stamp < s;
        };
        auto modelPut = [&](Key k, PageBuffer v, std::uint64_t s) {
            if (!fault)
                log_bytes += 12 + v.size();
            model[k] = ModelKey{true, s, std::move(v)};
            put_issued.insert(k);
            last_was_put.insert(k);
        };
        auto modelDel = [&](Key k, std::uint64_t s) {
            auto it = model.find(k);
            KvStatus st = it != model.end() && it->second.live
                              ? KvStatus::Ok
                              : KvStatus::NotFound;
            model[k] = durable[k] = ModelKey{false, s, {}};
            last_was_put.erase(k);
            return st;
        };

        unsigned ops = 1 + unsigned(rng.below(8));
        for (unsigned op = 0; op < ops; ++op) {
            Key k = rng.below(keys);
            std::uint64_t kind = rng.below(23);
            if (kind < 7) {
                PageBuffer v(1 + rng.below(200),
                             std::uint8_t(rng.next()));
                std::uint64_t s = ++stamp;
                shard.put(k, v, s, expect(put_st));
                modelPut(k, std::move(v), s);
            } else if (kind < 10) {
                std::uint64_t s = ++stamp;
                shard.del(k, s, expect(modelDel(k, s)));
            } else if (kind < 15) {
                auto it = model.find(k);
                bool live = it != model.end() && it->second.live;
                PageBuffer want = live ? it->second.value : PageBuffer{};
                shard.get(k, [&acked, live, want](PageBuffer v,
                                                  KvStatus st,
                                                  std::uint64_t) {
                    ++acked;
                    EXPECT_EQ(st,
                              live ? KvStatus::Ok : KvStatus::NotFound);
                    EXPECT_EQ(v, want);
                });
            } else if (kind < 18) {
                std::uint64_t s = rng.range(1, stamp + 2);
                stamp = std::max(stamp, s);
                PageBuffer v(1 + rng.below(200),
                             std::uint8_t(rng.next()));
                bool applies = newer(k, s);
                shard.repairPut(k, v, s,
                                expect(applies ? put_st : KvStatus::Ok));
                if (applies)
                    modelPut(k, std::move(v), s);
            } else if (kind < 20) {
                std::uint64_t s = rng.range(1, stamp + 2);
                stamp = std::max(stamp, s);
                KvStatus want = newer(k, s) ? modelDel(k, s)
                                            : KvStatus::Ok;
                shard.repairDel(k, s, expect(want));
            } else {
                // Prune, possibly under in-flight appends: those keep
                // their own rollback target, so only a quiescent key's
                // durable state loses the tombstone.
                std::uint64_t lo = rng.below(2) ? 0 : rng.next();
                std::uint64_t hi = rng.below(2) ? ~std::uint64_t(0)
                                                : rng.next();
                std::uint64_t below = rng.below(2)
                                          ? stamp + 1
                                          : rng.range(0, stamp + 1);
                shard.pruneTombstones(lo, hi, below);
                for (auto it = model.begin(); it != model.end();) {
                    std::uint64_t h = kv::mix64(it->first);
                    if (it->second.live || it->second.stamp >= below ||
                        h < lo || h > hi) {
                        ++it;
                        continue;
                    }
                    if (put_issued.count(it->first) == 0)
                        durable.erase(it->first);
                    last_was_put.erase(it->first);
                    it = model.erase(it);
                }
                continue;
            }
            ++issued;
        }
        sim.run();
        EXPECT_EQ(acked, issued);
        for (Key k : last_was_put) {
            if (!fault)
                break;
            auto it = durable.find(k);
            if (it == durable.end())
                model.erase(k);
            else
                model[k] = it->second;
        }
        checkAgainstModel(sim, shard, model, keys, log_bytes);
        if (::testing::Test::HasFailure())
            return;
    }
}

} // namespace

TEST(KvShard, RandomOpsMatchReferenceModel)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        runShardModel(seed);
    }
}

// ---------------------------------------------------------------- //
// Hot-key read path: coalescing + conditional gets
// ---------------------------------------------------------------- //

TEST(KvShard, CoalescesConcurrentFlashReads)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvShard shard(sim, cluster.node(0).fs(), "t");

    shard.put(5, val(0x55), [](KvStatus) {});
    sim.run(); // durable: memtable drained, reads go to flash

    int done = 0;
    for (int i = 0; i < 6; ++i) {
        shard.get(5, [&](PageBuffer v, KvStatus st, std::uint64_t) {
            EXPECT_EQ(st, KvStatus::Ok);
            EXPECT_EQ(v, val(0x55));
            ++done;
        });
    }
    sim.run();
    EXPECT_EQ(done, 6);
    // One flash read served all six: five joined the first.
    EXPECT_EQ(shard.coalescedGets(), 5u);
}

TEST(KvShard, ConditionalGetValidatesVersion)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvShard shard(sim, cluster.node(0).fs(), "t");

    shard.put(9, val(0x99), [](KvStatus) {});
    sim.run();

    std::uint64_t version = 0;
    shard.get(9, [&](PageBuffer, KvStatus, std::uint64_t ver) {
        version = ver;
    });
    sim.run();
    ASSERT_NE(version, 0u);

    // Matching version: "not modified", no value bytes.
    PageBuffer got = val(0x01);
    KvStatus st = KvStatus::Error;
    std::uint64_t ver2 = 0;
    shard.getIfNewer(9, version,
                     [&](PageBuffer v, KvStatus s,
                         std::uint64_t ver) {
        got = std::move(v);
        st = s;
        ver2 = ver;
    });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(ver2, version);
    EXPECT_EQ(shard.validatedGets(), 1u);

    // After an overwrite the same conditional get returns the fresh
    // value and its new version.
    shard.put(9, val(0x9a), [](KvStatus) {});
    sim.run();
    shard.getIfNewer(9, version,
                     [&](PageBuffer v, KvStatus s,
                         std::uint64_t ver) {
        got = std::move(v);
        st = s;
        ver2 = ver;
    });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(got, val(0x9a));
    EXPECT_GT(ver2, version);
    EXPECT_EQ(shard.validatedGets(), 1u);
}

// ---------------------------------------------------------------- //
// Router hot-key cache
// ---------------------------------------------------------------- //

namespace {

kv::KvParams
cachedParams()
{
    kv::KvParams kp;
    kp.cacheSlots = 64;
    kp.cacheAdmitHits = 1; // admit on first fill (tests)
    return kp;
}

/** A key that origin 0 must read from a remote replica. */
Key
remoteKeyFor(kv::KvRouter &router, net::NodeId origin)
{
    Key key = 0;
    while (router.readReplica(origin, key) == origin)
        ++key;
    return key;
}

} // namespace

TEST(KvRouter, CacheServesValidatedHotKey)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, cachedParams());

    Key key = remoteKeyFor(router, 0);
    net::NodeId replica = router.readReplica(0, key);
    router.put(1, key, val(0x42), [](KvStatus) {});
    sim.run();

    // First get fetches and fills the cache; the second validates
    // and serves locally -- the replica's shard answers with an
    // O(1) index probe instead of a flash read.
    PageBuffer got;
    for (int i = 0; i < 2; ++i) {
        got.clear();
        router.get(0, key, [&](PageBuffer v, KvStatus st) {
            EXPECT_EQ(st, KvStatus::Ok);
            got = std::move(v);
        });
        sim.run();
        EXPECT_EQ(got, val(0x42)) << "get " << i;
    }
    EXPECT_EQ(router.cacheServedGets(), 1u);
    EXPECT_EQ(router.shard(replica).validatedGets(), 1u);
    ASSERT_NE(router.cache(0), nullptr);
    EXPECT_EQ(router.cache(0)->size(), 1u);
}

TEST(KvRouter, CacheNeverServesStaleAfterRemotePut)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, cachedParams());

    Key key = remoteKeyFor(router, 0);
    router.put(1, key, val(0x0a), [](KvStatus) {});
    sim.run();

    // Warm node 0's cache.
    for (int i = 0; i < 2; ++i) {
        router.get(0, key, [](PageBuffer, KvStatus) {});
        sim.run();
    }
    std::uint64_t served = router.cacheServedGets();
    EXPECT_GT(served, 0u);

    // Another node overwrites the key. Node 0's cached version is
    // now stale; the conditional get must self-detect and return
    // the fresh value, never the cached one.
    router.put(1, key, val(0x0b), [](KvStatus) {});
    sim.run();

    PageBuffer got;
    KvStatus st = KvStatus::Error;
    router.get(0, key, [&](PageBuffer v, KvStatus s) {
        got = std::move(v);
        st = s;
    });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(got, val(0x0b));
    EXPECT_GT(router.cacheStaleGets(), 0u);

    // The refilled entry validates again on the next get.
    router.get(0, key, [&](PageBuffer v, KvStatus) {
        got = std::move(v);
    });
    sim.run();
    EXPECT_EQ(got, val(0x0b));
    EXPECT_GT(router.cacheServedGets(), served);
}

TEST(KvRouter, CacheInvalidatesOnDelete)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, cachedParams());

    Key key = remoteKeyFor(router, 0);
    router.put(1, key, val(0x0c), [](KvStatus) {});
    sim.run();
    for (int i = 0; i < 2; ++i) {
        router.get(0, key, [](PageBuffer, KvStatus) {});
        sim.run();
    }
    ASSERT_NE(router.cache(0), nullptr);
    EXPECT_EQ(router.cache(0)->size(), 1u);

    router.del(2, key, [](KvStatus) {});
    sim.run();

    KvStatus st = KvStatus::Ok;
    router.get(0, key, [&](PageBuffer, KvStatus s) { st = s; });
    sim.run();
    EXPECT_EQ(st, KvStatus::NotFound);
    EXPECT_EQ(router.cache(0)->size(), 0u);
}

TEST(KvRouter, ReadYourWritesWithCacheEnabled)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, cachedParams());

    Key key = remoteKeyFor(router, 0);
    router.put(0, key, val(0x01), [](KvStatus) {});
    sim.run();
    for (int i = 0; i < 2; ++i) {
        router.get(0, key, [](PageBuffer, KvStatus) {});
        sim.run();
    }

    // The node that cached the key overwrites it; its own next get
    // must see the new value (the put invalidates the origin's
    // entry, and validation would catch it regardless).
    router.put(0, key, val(0x02), [](KvStatus) {});
    sim.run();
    PageBuffer got;
    router.get(0, key, [&](PageBuffer v, KvStatus st) {
        EXPECT_EQ(st, KvStatus::Ok);
        got = std::move(v);
    });
    sim.run();
    EXPECT_EQ(got, val(0x02));
}

// ---------------------------------------------------------------- //
// Partial write-all failure: divergence contract
// ---------------------------------------------------------------- //

TEST(KvRouter, DivergentWriteCountedAndContractHolds)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvParams kp;
    kp.cacheSlots = 0;  // isolate the replication behavior
    kp.writeQuorum = 2; // strict write-all: Ok = every copy landed
    kv::KvRouter router(sim, cluster, kp);

    const Key key = 42;
    auto own = router.owners(key);
    ASSERT_EQ(own.size(), 2u);
    router.put(own[0], key, val(0xaa), [](KvStatus) {});
    sim.run();

    // One replica's flash fails the overwrite: the write-all must
    // ack Error and count the divergence.
    armWriteFault(cluster, own[1]);
    KvStatus st = KvStatus::Ok;
    router.put(own[0], key, val(0xbb), [&](KvStatus s) { st = s; });
    sim.run();
    disarmWriteFault(cluster, own[1]);
    EXPECT_EQ(st, KvStatus::Error);
    EXPECT_EQ(router.divergentWrites(), 1u);

    // Documented contract: the failed replica rolled back to its
    // last durable version, the healthy one kept the new value, and
    // read-one returns whichever the origin's deterministic routing
    // picks -- but never garbage.
    for (unsigned origin = 0; origin < 4; ++origin) {
        net::NodeId replica =
            router.readReplica(net::NodeId(origin), key);
        PageBuffer got;
        KvStatus gst = KvStatus::Error;
        router.get(net::NodeId(origin), key,
                   [&](PageBuffer v, KvStatus s) {
            got = std::move(v);
            gst = s;
        });
        sim.run();
        EXPECT_EQ(gst, KvStatus::Ok) << "origin " << origin;
        EXPECT_EQ(got, replica == own[1] ? val(0xaa) : val(0xbb))
            << "origin " << origin << " replica " << replica;
    }

    // The sweep closes the window the failure opened: the stale
    // replica receives the newer-stamped value and the divergence
    // counter drains to zero.
    bool swept = false;
    router.repairSweep([&]() { swept = true; });
    sim.run();
    EXPECT_TRUE(swept);
    EXPECT_EQ(router.divergentWrites(), 0u);
    EXPECT_GE(router.repairedKeys(), 1u);
    for (unsigned origin = 0; origin < 4; ++origin) {
        PageBuffer got;
        router.get(net::NodeId(origin), key,
                   [&](PageBuffer v, KvStatus) {
            got = std::move(v);
        });
        sim.run();
        EXPECT_EQ(got, val(0xbb)) << "origin " << origin;
    }
}

// ---------------------------------------------------------------- //
// Quorum acks + in-flight ledger + anti-entropy repair
// ---------------------------------------------------------------- //

namespace {

kv::KvParams
quorumParams(unsigned w)
{
    kv::KvParams kp;
    kp.cacheSlots = 0; // isolate replication behavior
    kp.writeQuorum = w;
    return kp;
}

} // namespace

TEST(KvRouter, QuorumAckCompletesBeforeStragglers)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, quorumParams(1));

    const Key key = 42;
    auto own = router.owners(key);
    ASSERT_EQ(own.size(), 2u);

    // Put from the primary's own node: the local shard programs its
    // NAND while the remote replica still needs a network hop plus
    // its own program. W=1 completes the client on the local ack,
    // with the straggler tracked in the background.
    bool acked = false;
    unsigned bg_at_ack = 0;
    router.put(own[0], key, val(0xbb), [&](KvStatus st) {
        EXPECT_EQ(st, KvStatus::Ok);
        acked = true;
        bg_at_ack = router.backgroundWrites();
    });
    sim.run();
    EXPECT_TRUE(acked);
    // The op moved through the background phase (visible at ack
    // time, where the straggler had not yet reported)...
    EXPECT_EQ(bg_at_ack, 1u);
    EXPECT_GE(router.maxBackgroundWrites(), 1u);
    // ...and fully drained once the replica write completed.
    EXPECT_EQ(router.backgroundWrites(), 0u);
    for (net::NodeId n : own)
        EXPECT_TRUE(router.shard(n).contains(key));
    EXPECT_EQ(router.divergentWrites(), 0u);
}

TEST(KvRouter, ReadRacingBackgroundWriteReturnsAckedValue)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, quorumParams(1));

    const Key key = 42;
    auto own = router.owners(key);
    ASSERT_EQ(own.size(), 2u);
    router.put(own[0], key, val(0xaa), [](KvStatus) {});
    sim.run();

    // A writer homed on a NON-owner node whose deterministic read
    // routing would pick a replica that may still be a straggler.
    net::NodeId writer = 0;
    bool found = false;
    for (unsigned n = 0; n < 4 && !found; ++n) {
        if (router.readReplica(net::NodeId(n), key) == own[1]) {
            writer = net::NodeId(n);
            found = true;
        }
    }
    ASSERT_TRUE(found);
    // Another non-writing origin, for the scoping check below.
    net::NodeId bystander = writer;
    for (unsigned n = 0; n < 4; ++n) {
        if (net::NodeId(n) != writer &&
            std::find(own.begin(), own.end(), net::NodeId(n)) ==
                own.end())
            bystander = net::NodeId(n);
    }
    ASSERT_NE(bystander, writer);

    // Overwrite with W=1 from `writer` and read the key back the
    // moment the quorum ack fires -- while the other replica write
    // is still in the network or its NAND. The ledger must steer
    // the writer's read to a replica that applied the write; the
    // pre-write value may never surface after the ack.
    PageBuffer got;
    bool read_done = false;
    router.put(writer, key, val(0xbb), [&](KvStatus st) {
        EXPECT_EQ(st, KvStatus::Ok);
        EXPECT_EQ(router.backgroundWrites(), 1u);
        // Read-your-writes is per session (node-homed): only the
        // writer is steered; a bystander keeps the deterministic
        // spread so hot-key reads never funnel onto one replica.
        EXPECT_EQ(router.readReplica(bystander, key),
                  own[bystander % 2]);
        router.get(writer, key, [&](PageBuffer v, KvStatus s) {
            EXPECT_EQ(s, KvStatus::Ok);
            got = std::move(v);
            read_done = true;
        });
    });
    sim.run();
    EXPECT_TRUE(read_done);
    EXPECT_EQ(got, val(0xbb));
    // Ledger drained with the background write; routing is back to
    // the plain deterministic choice.
    EXPECT_EQ(router.backgroundWrites(), 0u);
    EXPECT_EQ(router.readReplica(writer, key), own[1]);
}

TEST(KvRouter, QuorumFailedStragglerHealsViaAntiEntropy)
{
    // The ISSUE-4 acceptance scenario: a W=1 put whose straggler
    // program fails must ack Ok, leave a counted divergence, and
    // heal to zero under a repair sweep -- deterministically, with
    // the fault injected at the flash server.
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, quorumParams(1));

    const Key key = 42;
    auto own = router.owners(key);
    ASSERT_EQ(own.size(), 2u);
    router.put(own[0], key, val(0xaa), [](KvStatus) {});
    sim.run();

    armWriteFault(cluster, own[1]);
    KvStatus st = KvStatus::Error;
    router.put(own[0], key, val(0xbb), [&](KvStatus s) { st = s; });
    sim.run();
    disarmWriteFault(cluster, own[1]);

    // Quorum reached on the primary: the client saw Ok even though
    // the straggler failed afterwards...
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(router.shard(own[1]).failedPuts(), 1u);
    // ...and the divergence is on the books.
    EXPECT_EQ(router.divergentWrites(), 1u);

    bool swept = false;
    router.repairSweep([&]() { swept = true; });
    sim.run();
    EXPECT_TRUE(swept);
    EXPECT_EQ(router.divergentWrites(), 0u);
    EXPECT_GE(router.shard(own[1]).repairsApplied(), 1u);

    // Every origin now reads the acked value from every replica.
    for (unsigned origin = 0; origin < 4; ++origin) {
        PageBuffer got;
        KvStatus gst = KvStatus::Error;
        router.get(net::NodeId(origin), key,
                   [&](PageBuffer v, KvStatus s) {
            got = std::move(v);
            gst = s;
        });
        sim.run();
        EXPECT_EQ(gst, KvStatus::Ok) << "origin " << origin;
        EXPECT_EQ(got, val(0xbb)) << "origin " << origin;
    }
}

TEST(KvRouter, RepairSweepNoopOnConsistentCluster)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, quorumParams(1));

    for (Key k = 0; k < 64; ++k) {
        router.put(net::NodeId(k % 4), k, val(std::uint8_t(k), 32),
                   [](KvStatus) {});
    }
    sim.run();

    // Replicas hold identical (key, stamp) content, so every range
    // digest matches and the sweep pushes nothing.
    bool swept = false;
    router.repairSweep([&]() { swept = true; });
    sim.run();
    EXPECT_TRUE(swept);
    EXPECT_EQ(router.repairedKeys(), 0u);
    EXPECT_EQ(router.repairSweeps(), 1u);
}

TEST(KvRouter, RepairSweepPrunesSettledTombstones)
{
    // Deletes leave tombstones in every replica's repair index so
    // partial deletes converge; once a sweep sees the range
    // digest-identical with no writes in flight, those tombstones
    // are settled history and must be dropped everywhere at once
    // -- otherwise delete churn grows the index without bound.
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, quorumParams(1));

    for (Key k = 0; k < 32; ++k)
        router.put(net::NodeId(k % 4), k, val(std::uint8_t(k), 32),
                   [](KvStatus) {});
    sim.run();
    for (Key k = 0; k < 16; ++k)
        router.del(net::NodeId(k % 4), k, [](KvStatus) {});
    sim.run();

    std::size_t before = 0;
    for (unsigned n = 0; n < 4; ++n)
        before += router.shard(net::NodeId(n)).repairIndexSize();

    bool swept = false;
    router.repairSweep([&]() { swept = true; });
    sim.run();
    EXPECT_TRUE(swept);

    // 16 deleted keys x R=2 tombstones pruned; the 16 live keys'
    // entries stay.
    std::size_t after = 0, live = 0;
    for (unsigned n = 0; n < 4; ++n) {
        after += router.shard(net::NodeId(n)).repairIndexSize();
        live += router.shard(net::NodeId(n)).keyCount();
    }
    EXPECT_EQ(before - after, 32u);
    EXPECT_EQ(after, live);
    EXPECT_EQ(router.repairedKeys(), 0u); // pruning is not repair
}

TEST(KvRouter, RepairHealsNonPrimaryDivergenceAtR3)
{
    // Regression: the sweep must reconcile ALL replicas of a
    // segment against the newest-stamped state, wherever it lives.
    // With R=3 and the newest copy on a NON-primary replica
    // (primary + third replica both failed their programs), a
    // pairwise primary-vs-others comparison would pull the primary
    // up but find primary == third replica "consistent" and leave
    // the third stale.
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvParams kp;
    kp.cacheSlots = 0;
    kp.writeQuorum = 1;
    kp.replication = 3;
    kv::KvRouter router(sim, cluster, kp);

    const Key key = 42;
    auto own = router.owners(key);
    ASSERT_EQ(own.size(), 3u);
    router.put(own[0], key, val(0xaa), [](KvStatus) {});
    sim.run();

    // Fail programs on the primary and the third replica: only
    // own[1] applies the overwrite, and W=1 still acks Ok.
    armWriteFault(cluster, own[0]);
    armWriteFault(cluster, own[2]);
    KvStatus st = KvStatus::Error;
    router.put(own[1], key, val(0xbb), [&](KvStatus s) { st = s; });
    sim.run();
    disarmWriteFault(cluster, own[0]);
    disarmWriteFault(cluster, own[2]);
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(router.divergentWrites(), 1u);

    bool swept = false;
    router.repairSweep([&]() { swept = true; });
    sim.run();
    EXPECT_TRUE(swept);
    EXPECT_EQ(router.divergentWrites(), 0u);

    // EVERY replica -- including the equally-stale third one --
    // now serves the acked value.
    for (net::NodeId n : own) {
        PageBuffer got;
        router.shard(n).get(key, [&](PageBuffer v, KvStatus s,
                                     std::uint64_t) {
            EXPECT_EQ(s, KvStatus::Ok);
            got = std::move(v);
        });
        sim.run();
        EXPECT_EQ(got, val(0xbb)) << "replica " << n;
    }
}

TEST(KvRouter, RepairHealsDivergentDelete)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, quorumParams(2));

    const Key key = 42;
    auto own = router.owners(key);
    router.put(own[0], key, val(0xaa), [](KvStatus) {});
    sim.run();

    // Delete the key on one replica only, behind the router's back
    // (simulating the observable end state of a partial delete,
    // whose tombstone carries the delete's newer router stamp):
    // the replicas disagree about the key's existence.
    router.shard(own[1]).del(key, /*stamp=*/1000, [](KvStatus) {});
    sim.run();
    EXPECT_TRUE(router.shard(own[0]).contains(key));
    EXPECT_FALSE(router.shard(own[1]).contains(key));

    // The sweep compares stamps: the tombstone is newer, so the
    // delete propagates to the replica that still has the value.
    bool swept = false;
    router.repairSweep([&]() { swept = true; });
    sim.run();
    EXPECT_TRUE(swept);
    EXPECT_FALSE(router.shard(own[0]).contains(key));
    EXPECT_FALSE(router.shard(own[1]).contains(key));
}

TEST(KvRouter, PeriodicRepairSweepDrainsDivergenceUnattended)
{
    // With KvParams::repairIntervalUs set, the router schedules its
    // own anti-entropy sweeps: injected divergence must drain to
    // zero with no manual repairSweep() call. The armed timer keeps
    // the event queue alive, so the test drives time with
    // runUntil().
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvParams kp = quorumParams(1);
    kp.repairIntervalUs = 20000;
    kv::KvRouter router(sim, cluster, kp);

    const Key key = 42;
    auto own = router.owners(key);
    ASSERT_EQ(own.size(), 2u);
    router.put(own[0], key, val(0xaa), [](KvStatus) {});
    sim.runUntil(sim::usToTicks(5000));

    armWriteFault(cluster, own[1]);
    KvStatus st = KvStatus::Error;
    router.put(own[0], key, val(0xbb), [&](KvStatus s) { st = s; });
    sim.runUntil(sim::usToTicks(10000));
    disarmWriteFault(cluster, own[1]);

    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(router.divergentWrites(), 1u);
    EXPECT_EQ(router.repairSweeps(), 0u);

    // Two intervals later the scheduled sweep has visited the key.
    sim.runUntil(sim::usToTicks(60000));
    EXPECT_GE(router.repairSweeps(), 1u);
    EXPECT_EQ(router.divergentWrites(), 0u);
    EXPECT_GE(router.shard(own[1]).repairsApplied(), 1u);

    // The healed value serves from every replica.
    for (unsigned origin = 0; origin < 4; ++origin) {
        PageBuffer got;
        KvStatus gst = KvStatus::Error;
        router.get(net::NodeId(origin), key,
                   [&](PageBuffer v, KvStatus s) {
            got = std::move(v);
            gst = s;
        });
        sim.runUntil(sim.now() + sim::usToTicks(5000));
        EXPECT_EQ(gst, KvStatus::Ok) << "origin " << origin;
        EXPECT_EQ(got, val(0xbb)) << "origin " << origin;
    }
}

TEST(KvRouter, OverlappingRepairSweepsCoalesce)
{
    // A repairSweep() call landing while another sweep is running
    // (the periodic timer's, or another caller's) must not abort:
    // it queues, and a follow-up full pass fires its callback.
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, quorumParams(1));
    router.put(net::NodeId(0), 7, val(0x11), [](KvStatus) {});
    sim.run();

    bool first = false, second = false;
    router.repairSweep([&]() { first = true; });
    router.repairSweep([&]() { second = true; });
    sim.run();
    EXPECT_TRUE(first);
    EXPECT_TRUE(second);
    EXPECT_EQ(router.repairSweeps(), 2u);
    EXPECT_EQ(router.divergentWrites(), 0u);
}

// ---------------------------------------------------------------- //
// Elastic membership: failure detection, crash + rebuild, join/leave
// ---------------------------------------------------------------- //

namespace {

/** Tight detection knobs so membership tests run in simulated
 * milliseconds: short per-request timeouts, one-strike suspicion,
 * short death grace. */
kv::KvParams
memberParams(unsigned w, std::uint64_t timeout_us = 500,
             unsigned suspect_after = 1,
             std::uint64_t grace_us = 500)
{
    kv::KvParams kp;
    kp.cacheSlots = 0; // isolate routing + membership behavior
    kp.writeQuorum = w;
    kp.readTimeoutUs = timeout_us;
    kp.writeTimeoutUs = timeout_us;
    kp.readRetries = 2;
    kp.suspectAfter = suspect_after;
    kp.deadGraceUs = grace_us;
    return kp;
}

/** A (key, origin) pair whose deterministic read replica is the
 * key's PRIMARY and whose origin is not itself an owner -- so the
 * read is remote and fails over visibly when the primary dies. */
void
findRemotePrimaryRead(kv::KvRouter &router, unsigned nodes,
                      kv::Key &key, net::NodeId &origin)
{
    for (kv::Key k = 1; k < 256; ++k) {
        auto own = router.owners(k);
        for (unsigned n = 0; n < nodes; ++n) {
            net::NodeId cand(n);
            if (std::find(own.begin(), own.end(), cand) !=
                own.end())
                continue;
            if (router.readReplica(cand, k) == own[0]) {
                key = k;
                origin = cand;
                return;
            }
        }
    }
    FAIL() << "no remote-primary (key, origin) pair found";
}

} // namespace

TEST(KvRouter, DtorWithInflightQuorumWritesIsSafe)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    {
        kv::KvRouter router(sim, cluster, quorumParams(1));
        for (Key k = 0; k < 16; ++k) {
            router.put(net::NodeId(k % 4), k, val(0x5a),
                       [](KvStatus) {});
        }
        // Give the quorum acks a head start while straggler
        // replica writes and their ledger entries are still open...
        sim.runUntil(sim::usToTicks(30));
        // ...then tear the router down mid-operation.
    }
    // The cluster's file systems still hold append continuations
    // and response messages addressed to the dead router; draining
    // them must be a no-op, not a use-after-free.
    sim.run();
}

TEST(KvRouter, ReadFailsOverAfterNodeKill)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster,
                        memberParams(2, 500, 2, 1500));

    Key key = 0;
    net::NodeId origin = 0;
    findRemotePrimaryRead(router, 4, key, origin);
    auto own = router.owners(key);
    router.put(own[0], key, val(0xcd), [](KvStatus) {});
    sim.run();

    router.killNode(own[0]);

    // First read: addressed to the (undetected) dead primary,
    // times out, retries the surviving replica, serves the value.
    PageBuffer got;
    KvStatus st = KvStatus::Error;
    router.get(origin, key, [&](PageBuffer v, KvStatus s) {
        got = std::move(v);
        st = s;
    });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(got, val(0xcd));
    EXPECT_GE(router.readTimeouts(), 1u);
    EXPECT_GE(router.retriedReads(), 1u);
    // One timeout: below the suspicion threshold of 2.
    EXPECT_EQ(router.member(own[0]), kv::MemberState::Live);

    // Second read: the second consecutive timeout marks the node
    // Suspect, and the grace period (drained by run()) buries it.
    router.get(origin, key, [&](PageBuffer v, KvStatus s) {
        got = std::move(v);
        st = s;
    });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(got, val(0xcd));
    EXPECT_GE(router.suspectTransitions(), 1u);
    EXPECT_EQ(router.deadTransitions(), 1u);
    EXPECT_EQ(router.member(own[0]), kv::MemberState::Dead);
    EXPECT_EQ(router.liveNodes(), 3u);

    // Third read: Dead replicas are routed around up front -- no
    // timeout, no retry, just the surviving replica.
    std::uint64_t timeouts = router.readTimeouts();
    router.get(origin, key, [&](PageBuffer v, KvStatus s) {
        got = std::move(v);
        st = s;
    });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(got, val(0xcd));
    EXPECT_EQ(router.readTimeouts(), timeouts);
}

TEST(KvRouter, KillRebuildDrainsDivergence)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, memberParams(1));

    const Key key = 7;
    auto own = router.owners(key);
    router.put(own[0], key, val(0xaa), [](KvStatus) {});
    sim.run();

    router.killNode(own[1]);

    // Write into the crash window: the quorum-of-1 ack comes from
    // the primary, the dead replica's slot times out, the key is
    // marked divergent, and detection buries the replica.
    KvStatus st = KvStatus::Error;
    router.put(own[0], key, val(0xbb),
               [&](KvStatus s) { st = s; });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_GE(router.writeTimeouts(), 1u);
    EXPECT_EQ(router.divergentWrites(), 1u);
    EXPECT_EQ(router.member(own[1]), kv::MemberState::Dead);

    // A sweep with the replica still dead compares what it can but
    // must NOT clear the divergence mark: the dead replica has not
    // been reconciled.
    bool swept = false;
    router.repairSweep([&]() { swept = true; });
    sim.run();
    EXPECT_TRUE(swept);
    EXPECT_EQ(router.divergentWrites(), 1u);

    // Restart + rebuild: Joining (written, not read) until the
    // rebuild sweep streams it back to currency, then Live with
    // the divergence drained.
    router.reviveNode(own[1]);
    EXPECT_EQ(router.member(own[1]), kv::MemberState::Joining);
    bool rebuilt = false;
    router.rebuildNode(own[1], [&]() { rebuilt = true; });
    sim.run();
    EXPECT_TRUE(rebuilt);
    EXPECT_EQ(router.member(own[1]), kv::MemberState::Live);
    EXPECT_EQ(router.divergentWrites(), 0u);
    EXPECT_EQ(router.liveNodes(), 4u);

    // Both replicas now serve the value written while it was dead,
    // whichever one read-one picks.
    for (unsigned o = 0; o < 4; ++o) {
        PageBuffer got;
        router.get(net::NodeId(o), key,
                   [&](PageBuffer v, KvStatus) {
            got = std::move(v);
        });
        sim.run();
        EXPECT_EQ(got, val(0xbb)) << "origin " << o;
    }
}

TEST(KvRouter, WriteQuorumClampsToLiveReplicas)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, memberParams(2));

    const Key key = 11;
    auto own = router.owners(key);
    router.put(own[0], key, val(0xaa), [](KvStatus) {});
    sim.run();

    // Undetected crash: the write-all still addresses the dead
    // replica, times out, and fails the W=2 quorum.
    router.killNode(own[1]);
    KvStatus st = KvStatus::Ok;
    router.put(own[0], key, val(0xbb),
               [&](KvStatus s) { st = s; });
    sim.run();
    EXPECT_EQ(st, KvStatus::Error);
    EXPECT_EQ(router.member(own[1]), kv::MemberState::Dead);

    // Detected: the quorum clamps to the one live owner, the write
    // acks Ok, and the exposure is counted.
    router.put(own[0], key, val(0xcc),
               [&](KvStatus s) { st = s; });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_GE(router.degradedWrites(), 1u);
    EXPECT_GE(router.divergentWrites(), 1u);

    // Reads divert around the dead owner and serve the clamped
    // write's value. (Not from the dead node itself: a crashed
    // node has no clients -- a local read there would see its own
    // stale shard, which is why WorkloadEngine::pauseNode exists.)
    for (unsigned o = 0; o < 4; ++o) {
        if (net::NodeId(o) == own[1])
            continue;
        PageBuffer got;
        KvStatus gst = KvStatus::Error;
        router.get(net::NodeId(o), key,
                   [&](PageBuffer v, KvStatus s) {
            got = std::move(v);
            gst = s;
        });
        sim.run();
        EXPECT_EQ(gst, KvStatus::Ok) << "origin " << o;
        EXPECT_EQ(got, val(0xcc)) << "origin " << o;
    }

    // Kill the last owner too: once detection buries it, a write
    // with no addressable owner fails outright.
    router.killNode(own[0]);
    router.put(own[1], key, val(0xdd),
               [&](KvStatus s) { st = s; });
    sim.run();
    EXPECT_EQ(st, KvStatus::Error);
    EXPECT_EQ(router.member(own[0]), kv::MemberState::Dead);
    router.put(own[1], key, val(0xee),
               [&](KvStatus s) { st = s; });
    sim.run();
    EXPECT_EQ(st, KvStatus::Error);
}

TEST(KvRouter, SuspectRecoversOnLateResponse)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    // Long grace: the node must survive long enough for its late
    // response to prove it alive.
    kv::KvRouter router(sim, cluster,
                        memberParams(1, 500, 1, 100000));

    Key key = 0;
    net::NodeId origin = 0;
    findRemotePrimaryRead(router, 4, key, origin);
    auto own = router.owners(key);
    router.put(own[0], key, val(0xab), [](KvStatus) {});
    sim.run();

    // The primary is slow, not dead: hold every flash read on it
    // well past the request timeout.
    for (unsigned card = 0; card < 2; ++card) {
        cluster.node(own[0]).hostServer(card).setReadFault(
            [](const flash::Address &) {
            flash::FlashServer::ReadFaultAction act;
            act.delayTicks = sim::usToTicks(2000);
            return act;
        });
    }

    PageBuffer got;
    KvStatus st = KvStatus::Error;
    router.get(origin, key, [&](PageBuffer v, KvStatus s) {
        got = std::move(v);
        st = s;
    });
    sim.run();

    // The read failed over and served; the straggling response
    // landed after its request was retired -- counted, dropped,
    // and taken as proof of life: the node is Live again.
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(got, val(0xab));
    EXPECT_GE(router.retriedReads(), 1u);
    EXPECT_GE(router.suspectTransitions(), 1u);
    EXPECT_GE(router.lateResponses(), 1u);
    EXPECT_EQ(router.member(own[0]), kv::MemberState::Live);
    EXPECT_EQ(router.deadTransitions(), 0u);

    for (unsigned card = 0; card < 2; ++card)
        cluster.node(own[0]).hostServer(card).setReadFault(nullptr);
}

TEST(KvRouter, JoinExpandsRingAndServes)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvParams kp;
    kp.cacheSlots = 0;
    kp.activeNodes = 3; // node 3 built but outside the ring
    kv::KvRouter router(sim, cluster, kp);

    EXPECT_EQ(router.member(net::NodeId(3)),
              kv::MemberState::Standby);
    EXPECT_EQ(router.liveNodes(), 3u);

    const Key keys = 48;
    std::vector<std::uint8_t> fill(keys);
    for (Key k = 0; k < keys; ++k) {
        fill[k] = std::uint8_t(k);
        router.put(net::NodeId(k % 3), k, val(fill[k]),
                   [](KvStatus) {});
    }
    sim.run();
    for (Key k = 0; k < keys; ++k) {
        auto own = router.owners(k);
        EXPECT_EQ(std::count(own.begin(), own.end(),
                             net::NodeId(3)), 0)
            << "standby node owns key " << k;
    }

    // Expand onto node 3, with writes racing the two-phase
    // handoff (they dual-write to the union of old and new
    // owners, so the flip loses nothing).
    bool joined = false;
    router.joinNode(net::NodeId(3), [&]() { joined = true; });
    for (Key k = 0; k < 8; ++k) {
        fill[k] = std::uint8_t(0xe0 + k);
        router.put(net::NodeId(k % 3), k, val(fill[k]),
                   [](KvStatus) {});
    }
    sim.run();

    EXPECT_TRUE(joined);
    EXPECT_EQ(router.member(net::NodeId(3)),
              kv::MemberState::Live);
    EXPECT_EQ(router.liveNodes(), 4u);
    EXPECT_EQ(router.ringEpoch(), 1u);
    EXPECT_GT(router.movedKeys(), 0u);
    EXPECT_GT(router.shard(net::NodeId(3)).keyCount(), 0u);

    bool owns_any = false;
    for (Key k = 0; k < keys && !owns_any; ++k) {
        auto own = router.owners(k);
        owns_any = std::count(own.begin(), own.end(),
                              net::NodeId(3)) != 0;
    }
    EXPECT_TRUE(owns_any);

    // Every key serves its latest value from every origin.
    for (Key k = 0; k < keys; ++k) {
        for (unsigned o = 0; o < 4; ++o) {
            PageBuffer got;
            KvStatus st = KvStatus::Error;
            router.get(net::NodeId(o), k,
                       [&](PageBuffer v, KvStatus s) {
                got = std::move(v);
                st = s;
            });
            sim.run();
            EXPECT_EQ(st, KvStatus::Ok)
                << "key " << k << " origin " << o;
            EXPECT_EQ(got, val(fill[k]))
                << "key " << k << " origin " << o;
        }
    }
    EXPECT_EQ(router.divergentWrites(), 0u);
}

TEST(KvRouter, LeaveDrainsNodeAndServes)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvParams kp;
    kp.cacheSlots = 0;
    kv::KvRouter router(sim, cluster, kp);

    const Key keys = 48;
    std::vector<std::uint8_t> fill(keys);
    for (Key k = 0; k < keys; ++k) {
        fill[k] = std::uint8_t(k);
        router.put(net::NodeId(k % 4), k, val(fill[k]),
                   [](KvStatus) {});
    }
    sim.run();

    // Drain node 2 out of the ring, with writes racing the
    // handoff.
    bool left = false;
    router.leaveNode(net::NodeId(2), [&]() { left = true; });
    for (Key k = 0; k < 8; ++k) {
        fill[k] = std::uint8_t(0xd0 + k);
        router.put(net::NodeId(k % 4), k, val(fill[k]),
                   [](KvStatus) {});
    }
    sim.run();

    EXPECT_TRUE(left);
    EXPECT_EQ(router.member(net::NodeId(2)),
              kv::MemberState::Standby);
    EXPECT_EQ(router.liveNodes(), 3u);
    EXPECT_EQ(router.ringEpoch(), 1u);
    EXPECT_GT(router.movedKeys(), 0u);
    for (Key k = 0; k < keys; ++k) {
        auto own = router.owners(k);
        EXPECT_EQ(std::count(own.begin(), own.end(),
                             net::NodeId(2)), 0)
            << "departed node owns key " << k;
    }

    // Every key serves from every origin -- including the departed
    // node, which remains a valid requester.
    for (Key k = 0; k < keys; ++k) {
        for (unsigned o = 0; o < 4; ++o) {
            PageBuffer got;
            KvStatus st = KvStatus::Error;
            router.get(net::NodeId(o), k,
                       [&](PageBuffer v, KvStatus s) {
                got = std::move(v);
                st = s;
            });
            sim.run();
            EXPECT_EQ(st, KvStatus::Ok)
                << "key " << k << " origin " << o;
            EXPECT_EQ(got, val(fill[k]))
                << "key " << k << " origin " << o;
        }
    }
    EXPECT_EQ(router.divergentWrites(), 0u);
}

TEST(KvService, OverloadedRejectionCarriesRetryAfterHint)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvRouter router(sim, cluster);
    kv::KvService service(sim, router);

    kv::KvService::ClientParams cp;
    cp.window = 1;
    cp.queueCap = 2;
    cp.retryBaseUs = 20;
    auto client = service.addClient(net::NodeId(0), cp);
    EXPECT_EQ(service.retryAfterUs(client), 0u);

    unsigned rejected = 0;
    for (int i = 0; i < 8; ++i) {
        service.get(client, Key(i),
                    [&](PageBuffer, KvStatus st) {
            if (st == KvStatus::Overloaded)
                ++rejected;
        });
    }
    sim.run();
    EXPECT_GT(rejected, 0u);
    // Rejections happened at a full queue (2 ops = 2 windows of
    // backlog): base * (1 + 2/1).
    EXPECT_EQ(service.retryAfterUs(client), 60u);
}

// ---------------------------------------------------------------- //
// Aged flash: corrupt-read heal + capacity-pressure shedding
// ---------------------------------------------------------------- //

namespace {

/**
 * Append page-sized ballast to @p fs until its free-block red line
 * trips. Stops AT underPressure() -- pushing further would park
 * appends on the cleaner's reserve and never complete.
 */
bool
fillToPressure(sim::Simulator &sim, fs::LogFs &fs)
{
    if (!fs.create("ballast"))
        return false;
    std::vector<std::uint8_t> chunk(512, 0xb5);
    for (int i = 0; i < 4096 && !fs.underPressure(); ++i) {
        bool ok = false;
        fs.append("ballast", chunk, [&](bool s) { ok = s; });
        sim.run();
        if (!ok)
            return false;
    }
    return fs.underPressure();
}

} // namespace

TEST(KvRouter, CorruptLocalReadHealsFromReplica)
{
    // The read-path heal ladder end to end: an uncorrectable local
    // read marks the key corrupt, the client is served from the
    // surviving replica, and the healthy bytes are pushed back into
    // the corrupt shard under the replica's stamp.
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvParams kp;
    kp.cacheSlots = 0; // isolate the heal path
    kv::KvRouter router(sim, cluster, kp);

    const Key key = 42;
    auto own = router.owners(key);
    ASSERT_EQ(own.size(), 2u);
    // An owner origin reads its own shard: the local-read heal path.
    ASSERT_EQ(router.readReplica(own[0], key), own[0]);
    router.put(own[0], key, val(0xaa), [](KvStatus) {});
    sim.run();

    // Every sense on the primary's fs flash comes back
    // uncorrectable: the durable local copy is gone for good.
    cluster.node(own[0]).hostServer(0).setReadFault(
        [](const flash::Address &) {
        flash::FlashServer::ReadFaultAction act;
        act.uncorrectable = true;
        return act;
    });

    PageBuffer got;
    KvStatus st = KvStatus::Error;
    router.get(own[0], key, [&](PageBuffer v, KvStatus s) {
        got = std::move(v);
        st = s;
    });
    sim.run();

    // The client never saw the corruption: the replica served it.
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(got, val(0xaa));
    EXPECT_EQ(router.localCorruptions(), 1u);
    EXPECT_GE(router.shard(own[0]).corruptKeys(), 1u);

    // The write-back heal re-appended the value locally (writes are
    // unaffected by the read fault), clearing the corrupt mark.
    cluster.node(own[0]).hostServer(0).setReadFault(nullptr);
    sim.run();
    EXPECT_EQ(router.shard(own[0]).corruptKeyCount(), 0u);

    // The healed local copy serves again, no replica detour.
    got.clear();
    st = KvStatus::Error;
    router.get(own[0], key, [&](PageBuffer v, KvStatus s) {
        got = std::move(v);
        st = s;
    });
    sim.run();
    EXPECT_EQ(st, KvStatus::Ok);
    EXPECT_EQ(got, val(0xaa));
    EXPECT_EQ(router.localCorruptions(), 1u);
}

TEST(KvShard, PutShedsAtRedLineWhileRepairStillLands)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    fs::LogFs &fs = cluster.node(0).fs();
    kv::KvShard shard(sim, cluster.node(0).fs(), "t");

    ASSERT_TRUE(fillToPressure(sim, fs));
    ASSERT_FALSE(fs.exhausted());

    // Serving put: shed with Pressure at the red line, nothing
    // written, nothing rolled back.
    KvStatus st = KvStatus::Ok;
    shard.put(7, val(0x07), [&](KvStatus s) { st = s; });
    sim.run();
    EXPECT_EQ(st, KvStatus::Pressure);
    EXPECT_EQ(shard.pressuredPuts(), 1u);
    EXPECT_FALSE(shard.contains(7));

    // Maintenance write (anti-entropy push): Background class sheds
    // only at exhaustion, so healing proceeds under the same
    // pressure that rejects new client data.
    KvStatus rst = KvStatus::Error;
    shard.repairPut(9, val(0x09), /*stamp=*/1000,
                    [&](KvStatus s) { rst = s; });
    sim.run();
    EXPECT_EQ(rst, KvStatus::Ok);
    EXPECT_TRUE(shard.contains(9));

    // Reads never block on capacity: the repaired key serves.
    PageBuffer got;
    shard.get(9, [&](PageBuffer v, KvStatus, std::uint64_t) {
        got = std::move(v);
    });
    sim.run();
    EXPECT_EQ(got, val(0x09));
}

TEST(KvService, PressureSurfacesAsOverloadedWithRetryAfter)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvParams kp;
    kp.cacheSlots = 0;
    kp.replication = 1; // one owner: its red line decides the put
    kv::KvRouter router(sim, cluster, kp);
    kv::KvService service(sim, router);

    const Key key = 42;
    net::NodeId owner = router.owners(key)[0];
    auto client = service.addClient(owner);
    EXPECT_EQ(service.retryAfterUs(client), 0u);

    // Store the key while capacity is healthy...
    KvStatus st = KvStatus::Error;
    service.put(client, key, val(0xaa),
                [&](KvStatus s) { st = s; });
    sim.run();
    ASSERT_EQ(st, KvStatus::Ok);

    // ...then trip the owner's red line and overwrite: the shard's
    // Pressure surfaces to the client as the standard Overloaded +
    // retry-after contract, sized for block reclaim.
    ASSERT_TRUE(fillToPressure(sim, cluster.node(owner).fs()));
    service.put(client, key, val(0xbb),
                [&](KvStatus s) { st = s; });
    sim.run();
    EXPECT_EQ(st, KvStatus::Overloaded);
    EXPECT_EQ(service.pressureRejects(), 1u);
    EXPECT_EQ(service.retryAfterUs(client), 500u);

    // Degraded, not down: reads still serve the durable value.
    PageBuffer got;
    KvStatus gst = KvStatus::Error;
    service.get(client, key, [&](PageBuffer v, KvStatus s) {
        got = std::move(v);
        gst = s;
    });
    sim.run();
    EXPECT_EQ(gst, KvStatus::Ok);
    EXPECT_EQ(got, val(0xaa));
}
