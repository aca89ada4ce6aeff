#include "workload/workload.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace workload {

using flash::PageBuffer;
using kv::Key;
using kv::KvStatus;

WorkloadEngine::WorkloadEngine(sim::Simulator &sim,
                               core::Cluster &cluster,
                               kv::KvRouter &router,
                               kv::KvService &service,
                               const WorkloadParams &params)
    : sim_(sim), router_(router), service_(service), params_(params),
      clusterSize_(cluster.size())
{
    if (params_.mix.readFrac + params_.mix.scanFrac > 1.0)
        sim::fatal("operation mix fractions exceed 1");
    if (params_.openLoop && !(params_.arrivalsPerSec > 0.0))
        sim::fatal("open-loop workload needs an arrival rate");
    if (params_.pipeline == 0)
        sim::fatal("closed-loop pipeline must be >= 1");

    originNodes_ = params_.clientNodes != 0 ? params_.clientNodes
                                            : clusterSize_;
    if (originNodes_ > clusterSize_)
        sim::fatal("clientNodes exceeds the cluster");
    unsigned total_clients = originNodes_ * params_.clientsPerNode;
    if (total_clients == 0)
        sim::fatal("workload needs at least one client");

    // One Zipfian prototype shares the O(n) zeta precomputation.
    std::unique_ptr<ZipfianKeys> proto;
    if (params_.zipfian) {
        proto = std::make_unique<ZipfianKeys>(
            params_.keys, params_.theta, params_.seed);
    }

    clients_.resize(total_clients);
    for (unsigned i = 0; i < total_clients; ++i) {
        ClientState &c = clients_[i];
        net::NodeId origin =
            net::NodeId(i % originNodes_); // spread across nodes
        c.origin = origin;
        c.id = service_.addClient(origin, params_.client);
        std::uint64_t cseed = kv::mix64(
            params_.seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
        c.opRng = sim::Rng(cseed);
        if (params_.zipfian) {
            c.zipf = std::make_unique<ZipfianKeys>(*proto);
            c.zipf->reseed(cseed ^ 0x5bf036350c488d15ull);
        } else {
            c.uniform = std::make_unique<UniformKeys>(
                params_.keys, cseed ^ 0x5bf036350c488d15ull);
        }
        if (params_.openLoop) {
            c.arrivals = std::make_unique<PoissonArrivals>(
                params_.arrivalsPerSec,
                cseed ^ 0xc2b2ae3d27d4eb4full);
        }
        c.quota = params_.totalOps / total_clients +
            (i < params_.totalOps % total_clients ? 1 : 0);
    }
    targetOps_ = params_.totalOps;

    // Phase-local progress, published as gauges (runPhase resets
    // them, which a monotone sim::Counter cannot express). Guarded:
    // benches may snapshot after the engine is gone.
    struct Stat
    {
        const char *name;
        const std::uint64_t *value;
    };
    const Stat stats[] = {{"workload.completed", &completed_},
                          {"workload.rejected", &rejected_},
                          {"workload.not_found", &notFound_},
                          {"workload.backoffs", &backoffs_}};
    for (const Stat &s : stats) {
        sim.metrics().registerGauge(
            s.name, {}, [alive = alive_, v = s.value]() {
            return *alive ? double(*v) : 0.0;
        });
    }
}

PageBuffer
WorkloadEngine::makeValue(Key key, std::uint32_t bytes)
{
    // Byte i is byte (i % 8) of h XOR the low byte of i. Eight bytes
    // from a word-aligned i carry low bytes (i & 0xff) + 0..7 with no
    // carry between them, so a whole word is one XOR.
    static_assert(std::endian::native == std::endian::little,
                  "word-at-a-time value bytes assume little endian");
    PageBuffer value(bytes);
    std::uint64_t h = kv::mix64(key);
    std::uint32_t i = 0;
    for (; i + 8 <= bytes; i += 8) {
        std::uint64_t w = h ^ (0x0706050403020100ull +
                               (i & 0xff) * 0x0101010101010101ull);
        std::memcpy(value.data() + i, &w, 8);
    }
    for (; i < bytes; ++i)
        value[i] = std::uint8_t((h >> ((i % 8) * 8)) ^ i);
    return value;
}

void
WorkloadEngine::preload(std::function<void()> done)
{
    preloadNext_ = 0;
    preloadCompleted_ = 0;
    preloadDone_ = std::move(done);
    if (params_.keys == 0) {
        sim_.scheduleAfter(0, [this]() {
            auto fin = std::move(preloadDone_);
            preloadDone_ = nullptr;
            fin();
        });
        return;
    }
    pumpPreload();
}

void
WorkloadEngine::pumpPreload()
{
    // Bounded bulk load straight through the router: admission
    // control is a serving-phase concern. Origins rotate so the
    // load exercises every node's request path.
    constexpr unsigned window = 64;
    while (preloadNext_ < params_.keys &&
           preloadNext_ - preloadCompleted_ < window) {
        Key key = preloadNext_++;
        preloadPut(key);
    }
}

void
WorkloadEngine::preloadPut(Key key)
{
    router_.put(net::NodeId(key % originNodes_), key,
                makeValue(key, params_.valueBytes),
                [this, key](KvStatus st) {
        if (st == KvStatus::Pressure || st == KvStatus::Overloaded) {
            // Capacity red line (or quorum of shedding replicas):
            // the status is retryable by contract, and a bulk load
            // at high utilization WILL graze it -- the cleaner
            // needs flash time to free blocks. Pause and re-issue.
            sim_.scheduleAfter(sim::usToTicks(500),
                               [this, key]() { preloadPut(key); });
            return;
        }
        if (st != KvStatus::Ok)
            sim::fatal("preload put failed");
        if (++preloadCompleted_ == params_.keys) {
            auto fin = std::move(preloadDone_);
            preloadDone_ = nullptr;
            fin();
            return;
        }
        pumpPreload();
    });
}

Key
WorkloadEngine::nextKey(ClientState &c)
{
    return c.zipf ? c.zipf->next() : c.uniform->next();
}

void
WorkloadEngine::opFinished(std::size_t ci, sim::Tick start,
                           sim::LatencyHistogram &hist, bool accepted)
{
    ClientState &c = clients_[ci];
    if (c.inflight > 0)
        --c.inflight;
    if (accepted) {
        sim::Tick lat = sim_.now() - start;
        hist.record(lat);
        allLat_.record(lat);
    } else {
        ++rejected_;
    }
    ++completed_;
    endTick_ = sim_.now();
    if (completed_ == targetOps_) {
        auto fin = std::move(runDone_);
        runDone_ = nullptr;
        if (fin)
            fin();
        return;
    }
    if (params_.openLoop)
        return;
    // Closed loop: completion begets the next op -- except a
    // rejection with retry-after honoring, which pauses the client
    // for a jittered multiple of the service's hint first (the
    // polite response to a full queue; jitter decorrelates the
    // herd's retries).
    if (!accepted && params_.honorRetryAfter) {
        std::uint64_t us = service_.retryAfterUs(c.id);
        if (us > 0) {
            ++backoffs_;
            double jitter = 0.5 + c.opRng.uniform();
            std::uint64_t epoch = phaseEpoch_;
            sim_.scheduleAfter(
                sim::usToTicks(double(us) * jitter),
                [this, ci, epoch]() {
                if (epoch == phaseEpoch_)
                    refill(ci);
            });
            return;
        }
    }
    refill(ci);
}

void
WorkloadEngine::issueOne(std::size_t ci)
{
    ClientState &c = clients_[ci];
    ++c.inflight;
    double u = c.opRng.uniform();
    sim::Tick start = sim_.now();

    if (u < params_.mix.readFrac) {
        service_.get(c.id, nextKey(c),
                     [this, ci, start](PageBuffer, KvStatus st) {
            if (st == KvStatus::NotFound)
                ++notFound_;
            opFinished(ci, start, readLat_,
                       st != KvStatus::Overloaded);
        });
        return;
    }
    if (u < params_.mix.readFrac + params_.mix.scanFrac) {
        std::vector<Key> keys(params_.mix.scanLen);
        for (auto &k : keys)
            k = nextKey(c);
        service_.multiGet(c.id, std::move(keys),
                          [this, ci, start](
                              std::vector<PageBuffer>,
                              std::vector<KvStatus> sts) {
            bool accepted = true;
            for (KvStatus st : sts) {
                if (st == KvStatus::Overloaded)
                    accepted = false;
                else if (st == KvStatus::NotFound)
                    ++notFound_;
            }
            opFinished(ci, start, scanLat_, accepted);
        });
        return;
    }
    Key key = nextKey(c);
    service_.put(c.id, key, makeValue(key, params_.valueBytes),
                 [this, ci, start](KvStatus st) {
        opFinished(ci, start, writeLat_,
                   st != KvStatus::Overloaded);
    });
}

void
WorkloadEngine::refill(std::size_t ci)
{
    ClientState &c = clients_[ci];
    if (c.paused || c.issued >= c.quota)
        return;
    ++c.issued;
    issueOne(ci);
}

void
WorkloadEngine::pauseNode(net::NodeId node)
{
    // The node's clients stop issuing; their unissued quota spreads
    // over the survivors so the running phase still reaches its op
    // target. Survivors that already drained their quota (or are
    // waiting below their pipeline depth) get kicked directly --
    // nothing else would ever refill an idle client.
    std::uint64_t stranded = 0;
    std::vector<std::size_t> alive;
    for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
        ClientState &c = clients_[ci];
        if (c.origin == node) {
            if (!c.paused) {
                c.paused = true;
                stranded += c.quota - c.issued;
                c.quota = c.issued;
            }
        } else if (!c.paused) {
            alive.push_back(ci);
        }
    }
    if (stranded == 0 || alive.empty())
        return;
    for (std::size_t i = 0; i < alive.size(); ++i) {
        clients_[alive[i]].quota += stranded / alive.size() +
            (i < stranded % alive.size() ? 1 : 0);
    }
    if (params_.openLoop)
        return;
    for (std::size_t ci : alive) {
        ClientState &c = clients_[ci];
        while (c.inflight < params_.pipeline && c.issued < c.quota)
            refill(ci);
    }
}

void
WorkloadEngine::resumeNode(net::NodeId node)
{
    for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
        ClientState &c = clients_[ci];
        if (c.origin != node || !c.paused)
            continue;
        c.paused = false;
        if (!params_.openLoop) {
            while (c.inflight < params_.pipeline &&
                   c.issued < c.quota)
                refill(ci);
        }
    }
}

void
WorkloadEngine::runPhase(std::uint64_t ops, std::function<void()> done)
{
    if (params_.openLoop)
        sim::fatal("runPhase is closed-loop only");
    if (runDone_)
        sim::fatal("runPhase while a phase is still running");
    ++phaseEpoch_; // park leftover backoff wakeups
    readLat_.reset();
    writeLat_.reset();
    scanLat_.reset();
    allLat_.reset();
    completed_ = 0;
    rejected_ = 0;
    notFound_ = 0;
    backoffs_ = 0;

    std::vector<std::size_t> alive;
    for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
        ClientState &c = clients_[ci];
        c.quota = 0;
        c.issued = 0;
        if (!c.paused)
            alive.push_back(ci);
    }
    if (alive.empty())
        sim::fatal("runPhase with every client paused");

    runDone_ = std::move(done);
    targetOps_ = ops;
    startTick_ = sim_.now();
    endTick_ = startTick_;
    if (ops == 0) {
        sim_.scheduleAfter(0, [this]() {
            auto fin = std::move(runDone_);
            runDone_ = nullptr;
            if (fin)
                fin();
        });
        return;
    }
    for (std::size_t i = 0; i < alive.size(); ++i) {
        clients_[alive[i]].quota = ops / alive.size() +
            (i < ops % alive.size() ? 1 : 0);
    }
    for (std::size_t ci : alive) {
        auto burst = std::min<std::uint64_t>(params_.pipeline,
                                             clients_[ci].quota);
        for (std::uint64_t p = 0; p < burst; ++p)
            refill(ci);
    }
}

void
WorkloadEngine::scheduleArrival(std::size_t ci)
{
    ClientState &c = clients_[ci];
    if (c.issued >= c.quota)
        return;
    sim_.scheduleAfter(c.arrivals->nextGap(), [this, ci]() {
        ClientState &cl = clients_[ci];
        if (cl.issued >= cl.quota)
            return;
        ++cl.issued;
        issueOne(ci);
        scheduleArrival(ci);
    });
}

void
WorkloadEngine::run(std::function<void()> done)
{
    runDone_ = std::move(done);
    startTick_ = sim_.now();
    endTick_ = startTick_;
    if (targetOps_ == 0) {
        sim_.scheduleAfter(0, [this]() {
            auto fin = std::move(runDone_);
            runDone_ = nullptr;
            if (fin)
                fin();
        });
        return;
    }
    for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
        if (params_.openLoop) {
            scheduleArrival(ci);
        } else {
            auto burst = std::min<std::uint64_t>(
                params_.pipeline, clients_[ci].quota);
            for (std::uint64_t p = 0; p < burst; ++p)
                refill(ci);
        }
    }
}

double
WorkloadEngine::throughputOpsPerSec() const
{
    std::uint64_t accepted = completed_ - rejected_;
    sim::Tick elapsed = endTick_ - startTick_;
    if (elapsed == 0)
        return 0.0;
    return double(accepted) / sim::ticksToSec(elapsed);
}

} // namespace workload
} // namespace bluedbm
