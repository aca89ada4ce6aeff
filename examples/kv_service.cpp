/**
 * @file
 * KV service walkthrough: build a small appliance, stand up the
 * sharded key-value store over its global flash address space, use
 * the client API (put/get/multi-get/delete), then drive a short
 * Zipfian workload and print the tail-latency report.
 *
 * Run:  ./example_kv_service
 */

#include <cstdio>
#include <string>

#include "core/cluster.hh"
#include "kv/kv_router.hh"
#include "kv/kv_service.hh"
#include "sim/simulator.hh"
#include "workload/workload.hh"

using namespace bluedbm;
using flash::PageBuffer;

int
main()
{
    // --- 1. A 4-node ring with two flash cards per node; the KV
    //        service needs two extra network endpoints.
    sim::Simulator sim;
    core::ClusterParams params;
    params.topology = net::Topology::ring(4, 2);
    params.node.geometry = flash::Geometry::tiny();
    params.node.timing = flash::Timing::fast();
    params.network.endpoints = kv::kvRequiredEndpoints;
    core::Cluster cluster(sim, params);

    // --- 2. Shards + consistent-hash routing with 2 replicas per
    //        key, and the admission-controlled front-end.
    kv::KvParams kp;
    kp.replication = 2;
    kv::KvRouter router(sim, cluster, kp);
    kv::KvService service(sim, router);
    auto client = service.addClient(/*origin node=*/0);

    std::printf("KV appliance: %u nodes, R=%u, %.1f MB flash\n",
                cluster.size(), router.replication(),
                double(cluster.capacityBytes()) / 1e6);

    // --- 3. The client API.
    std::string text = "value stored in the global flash address "
                       "space";
    PageBuffer value(text.begin(), text.end());
    bool failed = false; // any printed check that did not hold
    service.put(client, /*key=*/42, value, [&](kv::KvStatus st) {
        failed |= st != kv::KvStatus::Ok;
        std::printf("put key 42: %s\n",
                    st == kv::KvStatus::Ok ? "ok" : "FAILED");
    });
    sim.run();

    auto owners = router.owners(42);
    std::printf("key 42 lives on nodes %u and %u\n", owners[0],
                owners[1]);

    service.get(client, 42, [&](PageBuffer v, kv::KvStatus st) {
        failed |= st != kv::KvStatus::Ok || v != value;
        std::printf("get key 42: %s ('%s')\n",
                    st == kv::KvStatus::Ok ? "ok" : "miss",
                    std::string(v.begin(), v.end()).c_str());
    });
    sim.run();

    service.put(client, 7, PageBuffer(16, 0x07), [](kv::KvStatus) {});
    sim.run();
    service.multiGet(client, {42, 7, 999},
                     [&](std::vector<PageBuffer> values,
                         std::vector<kv::KvStatus> sts) {
        failed |= sts[2] != kv::KvStatus::NotFound;
        std::printf("multi-get [42, 7, 999]: %zu B, %zu B, %s\n",
                    values[0].size(), values[1].size(),
                    sts[2] == kv::KvStatus::NotFound ? "miss"
                                                     : "??");
    });
    sim.run();

    service.del(client, 42, [&](kv::KvStatus st) {
        failed |= st != kv::KvStatus::Ok;
        std::printf("delete key 42: %s\n",
                    st == kv::KvStatus::Ok ? "ok" : "FAILED");
    });
    sim.run();

    // --- 4. A short Zipfian 95/5 workload from every node, with
    //        the HDR tail-latency report a serving system lives by.
    workload::WorkloadParams wp;
    wp.keys = 500;
    wp.valueBytes = 64;
    wp.mix.readFrac = 0.95;
    wp.zipfian = true;
    wp.theta = 0.99;
    wp.clientsPerNode = 4;
    wp.pipeline = 2;
    wp.totalOps = 5000;
    workload::WorkloadEngine engine(sim, cluster, router, service,
                                    wp);
    engine.preload([]() {});
    sim.run();
    engine.run([]() {});
    sim.run();

    const auto &lat = engine.allLatency();
    std::printf("\nworkload: %llu ops at %.0f ops/s\n",
                (unsigned long long)engine.completedOps(),
                engine.throughputOpsPerSec());
    std::printf("latency  p50 %.1f us   p95 %.1f us   p99 %.1f us "
                "  p99.9 %.1f us\n",
                sim::ticksToUs(lat.p50()),
                sim::ticksToUs(lat.p95()),
                sim::ticksToUs(lat.p99()),
                sim::ticksToUs(lat.p999()));
    std::printf("shards:  ");
    for (unsigned n = 0; n < cluster.size(); ++n)
        std::printf("node%u=%zu keys  ", n,
                    router.shard(net::NodeId(n)).keyCount());
    std::printf("\nremote/local shard ops: %llu/%llu\n",
                (unsigned long long)router.remoteOps(),
                (unsigned long long)router.localOps());

    // --- 5. The hot-key read path under skew: validated cache hits
    //        skip the flash read and the value bytes on the wire,
    //        and duplicate in-flight reads coalesce at the shard.
    std::uint64_t coalesced = 0, validated = 0;
    for (unsigned n = 0; n < cluster.size(); ++n) {
        coalesced += router.shard(net::NodeId(n)).coalescedGets();
        validated += router.shard(net::NodeId(n)).validatedGets();
    }
    std::printf("hot keys: %llu gets served from the per-node "
                "cache (%llu went stale and self-corrected),\n"
                "          %llu validated at shards without a "
                "flash read, %llu coalesced onto shared reads\n",
                (unsigned long long)router.cacheServedGets(),
                (unsigned long long)router.cacheStaleGets(),
                (unsigned long long)validated,
                (unsigned long long)coalesced);
    return failed ? 1 : 0;
}
