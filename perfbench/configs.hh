/**
 * @file
 * Configurations of the three workloads, shared by the measured
 * phases (workloads.cc) and the component probes (probes.cc).
 */

#ifndef PERFBENCH_CONFIGS_HH
#define PERFBENCH_CONFIGS_HH

#include <cstdint>

#include "core/cluster.hh"
#include "kv/kv_router.hh"
#include "workload/workload.hh"

namespace perfbench {

using namespace bluedbm;

/** 1 GB card, the svc_kv serving geometry (8 buses x 2 chips x 128
 * blocks x 64 pages of 8 KB). */
inline flash::Geometry
servingGeometry()
{
    flash::Geometry g;
    g.buses = 8;
    g.chipsPerBus = 2;
    g.blocksPerChip = 128;
    g.pagesPerBlock = 64;
    g.pageSize = 8192;
    return g;
}

/** 128 MB card (8 buses x 2 chips x 64 blocks x 16 pages of 8 KB):
 * room for kv_write's whole phase without cleaning (see kvWriteConfig). */
inline flash::Geometry
writeGeometry()
{
    flash::Geometry g;
    g.buses = 8;
    g.chipsPerBus = 2;
    g.blocksPerChip = 64;
    g.pagesPerBlock = 16;
    g.pageSize = 8192;
    return g;
}

struct KvConfig
{
    unsigned nodes = 20;
    unsigned lanes = 4;
    flash::Geometry geometry = servingGeometry();
    unsigned cards = 2;
    kv::KvParams kv;
    workload::WorkloadParams wl;
};

/** svc_kv's headline: 20-node ring, 4 lanes each way, R=2/W=1,
 * 95/5 zipf(0.99) over 10k preloaded 256 B keys, hot-key cache on,
 * 8 clients per node with pipeline 4. */
inline KvConfig
kvReadConfig()
{
    KvConfig c;
    c.kv.replication = 2;
    c.kv.writeQuorum = 1;
    c.kv.cacheSlots = 256;
    c.wl.keys = 10000;
    c.wl.valueBytes = 256;
    c.wl.mix.readFrac = 0.95;
    c.wl.zipfian = true;
    c.wl.theta = 0.99;
    c.wl.clientsPerNode = 8;
    c.wl.pipeline = 4;
    c.wl.client.window = 8;
    c.wl.client.queueCap = 1024;
    c.wl.totalOps = 80000;
    return c;
}

/**
 * 4-node ring (2 lanes), R=2/W=1, 60% puts of 2 KB values over 4000
 * uniform keys (far more than the 256-slot caches hold), 4 clients
 * per node with pipeline 2, one card per node.
 *
 * Sized so no op fails: on cards small enough for the LogFs cleaner
 * to run inside the phase, this load sheds puts at the capacity red
 * line and times out replica writes behind 3 ms erases (32-block
 * chips: 75 sheds and 1596 write timeouts in 40k ops), and the
 * benchmark admits only workloads without failed ops. The card
 * therefore holds the whole phase's appends. 60% rather than 50%
 * puts keeps the median inside the write mode: at 50/50 it sits on
 * the gap between the read (~125 us) and write (~450 us) modes and
 * jumps between them from seed to seed.
 */
inline KvConfig
kvWriteConfig()
{
    KvConfig c;
    c.nodes = 4;
    c.lanes = 2;
    c.geometry = writeGeometry();
    c.cards = 1;
    c.kv.replication = 2;
    c.kv.writeQuorum = 1;
    c.kv.cacheSlots = 256;
    c.wl.keys = 4000;
    c.wl.valueBytes = 2048;
    c.wl.mix.readFrac = 0.4;
    c.wl.zipfian = false;
    c.wl.clientsPerNode = 4;
    c.wl.pipeline = 2;
    c.wl.client.window = 8;
    c.wl.client.queueCap = 1024;
    c.wl.honorRetryAfter = true;
    c.wl.totalOps = 40000;
    return c;
}

struct IspConfig
{
    unsigned nodes = 16;
    unsigned lanes = 2;
    flash::Geometry geometry = servingGeometry();
    unsigned cards = 2;
    /** Reads each node's in-store processor keeps outstanding. Kept
     * below the depth at which ring credits deadlock (see
     * docs/kernel.md); a stuck read fails the run. */
    unsigned window = 16;
    std::uint64_t ops = 48000;
};

inline core::ClusterParams
clusterParams(const net::Topology &topology, const flash::Geometry &geo,
              unsigned cards, unsigned endpoints, std::uint64_t seed)
{
    core::ClusterParams cp;
    cp.topology = topology;
    cp.node.geometry = geo;
    cp.node.timing = flash::Timing{};
    cp.node.cards = cards;
    cp.node.controllerTags = 128;
    cp.node.seed = seed;
    cp.network.endpoints = endpoints;
    return cp;
}

} // namespace perfbench

#endif // PERFBENCH_CONFIGS_HH
