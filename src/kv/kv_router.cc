#include "kv/kv_router.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace kv {

using flash::PageBuffer;
using net::NodeId;

KvRouter::KvRouter(sim::Simulator &sim, core::Cluster &cluster,
                   const KvParams &params)
    : sim_(sim), cluster_(cluster), params_(params),
      localOps_(sim.metrics().counter("kv.router.local_ops")),
      remoteOps_(sim.metrics().counter("kv.router.remote_ops")),
      cacheServed_(sim.metrics().counter("kv.router.cache_served")),
      cacheStale_(sim.metrics().counter("kv.router.cache_stale")),
      repairedKeys_(sim.metrics().counter("kv.router.repaired_keys")),
      repairSweeps_(sim.metrics().counter("kv.router.repair_sweeps")),
      readTimeouts_(sim.metrics().counter("kv.router.read_timeouts")),
      writeTimeouts_(
          sim.metrics().counter("kv.router.write_timeouts")),
      retriedReads_(sim.metrics().counter("kv.router.retried_reads")),
      failedReads_(sim.metrics().counter("kv.router.failed_reads")),
      degradedWrites_(
          sim.metrics().counter("kv.router.degraded_writes")),
      lateResponses_(
          sim.metrics().counter("kv.router.late_responses")),
      suspectTransitions_(
          sim.metrics().counter("kv.router.suspect_transitions")),
      deadTransitions_(
          sim.metrics().counter("kv.router.dead_transitions")),
      movedKeys_(sim.metrics().counter("kv.router.moved_keys")),
      localCorruption_(
          sim.metrics().counter("kv.router.local_corruption")),
      stageNet_(sim.metrics().histogram("kv.stage.net")),
      stageShard_(sim.metrics().histogram("kv.stage.shard"))
{
    if (cluster_.network().endpointCount() < kvRequiredEndpoints)
        sim::fatal("KV service needs >= %u network endpoints, "
                   "cluster has %u",
                   kvRequiredEndpoints,
                   cluster_.network().endpointCount());
    unsigned active = params_.activeNodes == 0 ? cluster_.size()
                                               : params_.activeNodes;
    if (active > cluster_.size())
        sim::fatal("activeNodes %u exceeds cluster size %u", active,
                   cluster_.size());
    if (params_.replication == 0 || params_.replication > active ||
        params_.replication > maxReplication)
        sim::fatal("replication factor %u invalid for %u active "
                   "nodes", params_.replication, active);
    if (params_.writeQuorum == 0 ||
        params_.writeQuorum > params_.replication)
        sim::fatal("write quorum %u invalid for replication %u",
                   params_.writeQuorum, params_.replication);
    if (params_.repairChunk == 0)
        sim::fatal("repair chunk must be >= 1");
    if (params_.vnodes == 0)
        sim::fatal("consistent hashing needs >= 1 vnode");
    if (params_.readRetries >= 2 * maxReplication)
        sim::fatal("readRetries %u exceeds the per-op target "
                   "budget", params_.readRetries);

    // Hash ring: vnodes points per active node, sorted once. Every
    // node derives identical owners with no directory service.
    // Nodes beyond activeNodes start Standby: provisioned but
    // owning no keys, joinable later.
    ring_.reserve(std::size_t(active) * params_.vnodes);
    for (unsigned n = 0; n < active; ++n) {
        for (unsigned v = 0; v < params_.vnodes; ++v)
            ring_.emplace_back(
                mix64((std::uint64_t(n) << 32) | v), NodeId(n));
    }
    std::sort(ring_.begin(), ring_.end());

    members_.resize(cluster_.size());
    for (unsigned n = active; n < cluster_.size(); ++n)
        members_[n].state = MemberState::Standby;

    for (unsigned n = 0; n < cluster_.size(); ++n) {
        shards_.emplace_back(std::make_unique<KvShard>(
            sim_, cluster_.node(n).fs(), params_.shardLog));
        if (params_.cacheSlots > 0) {
            KvCache::Params cp;
            cp.slots = params_.cacheSlots;
            cp.admitHits = params_.cacheAdmitHits;
            caches_.emplace_back(std::make_unique<KvCache>(cp));
        } else {
            caches_.emplace_back(nullptr);
        }
    }

    // Quantities that move both ways (or are maxima) stay plain
    // members, published as gauges. The router may die before the
    // Simulator in tests, so every gauge checks the liveness flag.
    auto alive = alive_;
    sim.metrics().registerGauge(
        "kv.router.background_writes", {}, [this, alive]() {
        return *alive ? double(backgroundWrites_) : 0.0;
    });
    sim.metrics().registerGauge(
        "kv.router.max_background_writes", {}, [this, alive]() {
        return *alive ? double(maxBackgroundWrites_) : 0.0;
    });
    sim.metrics().registerGauge(
        "kv.router.divergent_keys", {}, [this, alive]() {
        return *alive ? double(divergent_.size()) : 0.0;
    });
    // KvCache is a passive structure with no Simulator of its own;
    // the router publishes each node's cache stats on its behalf.
    for (unsigned n = 0; n < cluster_.size(); ++n) {
        if (!caches_[n])
            continue;
        const KvCache *c = caches_[n].get();
        sim::MetricLabels labels{{"inst", std::to_string(n)}};
        struct CacheStat
        {
            const char *name;
            std::uint64_t (KvCache::*read)() const;
        };
        static constexpr CacheStat stats[] = {
            {"kv.cache.lookups", &KvCache::lookups},
            {"kv.cache.hits", &KvCache::hits},
            {"kv.cache.admitted", &KvCache::admitted},
            {"kv.cache.rejected_fills", &KvCache::rejectedFills},
            {"kv.cache.evictions", &KvCache::evictions},
            {"kv.cache.invalidations", &KvCache::invalidations},
        };
        for (const CacheStat &s : stats) {
            sim.metrics().registerGauge(
                s.name, labels, [c, alive, read = s.read]() {
                return *alive ? double((c->*read)()) : 0.0;
            });
        }
        sim.metrics().registerGauge(
            "kv.cache.size", labels, [c, alive]() {
            return *alive ? double(c->size()) : 0.0;
        });
    }

    installAgents();
    if (params_.repairIntervalUs > 0)
        armRepairTimer();
}

KvRouter::~KvRouter()
{
    *alive_ = false;
    if (repairTimer_ != sim::invalidEventId)
        sim_.cancel(repairTimer_);
    for (Member &m : members_) {
        if (m.graceTimer != sim::invalidEventId)
            sim_.cancel(m.graceTimer);
    }
    // In-flight operations die with the router: their timers (and
    // grace timers above) capture `this` raw, so every armed event
    // must be cancelled before the memory goes away. The pending
    // callbacks are simply dropped -- nobody is left to hear them.
    for (auto &[id, op] : pending_) {
        (void)id;
        if (op.timer != sim::invalidEventId)
            sim_.cancel(op.timer);
    }
}

void
KvRouter::armRepairTimer()
{
    repairTimer_ = sim_.scheduleAfter(
        sim::usToTicks(double(params_.repairIntervalUs)), [this]() {
        repairTimer_ = sim::invalidEventId;
        if (sweepRunning_) {
            // A manual sweep (or a membership handoff) is
            // mid-flight: let it finish and try again next
            // interval (sweeps never overlap).
            armRepairTimer();
            return;
        }
        repairSweep([this]() { armRepairTimer(); });
    });
}

// ---------------------------------------------------------------- //
// Ring geometry
// ---------------------------------------------------------------- //

unsigned
KvRouter::ownersFromRing(const Ring &ring, std::size_t ring_index,
                         NodeId *out, unsigned max)
{
    unsigned count = 0;
    for (std::size_t step = 0;
         step < ring.size() && count < max; ++step) {
        if (ring_index == ring.size())
            ring_index = 0;
        NodeId n = ring[ring_index].second;
        if (std::find(out, out + count, n) == out + count)
            out[count++] = n;
        ++ring_index;
    }
    return count;
}

unsigned
KvRouter::ownersForHash(const Ring &ring, std::uint64_t h,
                        NodeId *out, unsigned max)
{
    auto it = std::lower_bound(ring.begin(), ring.end(),
                               std::make_pair(h, NodeId(0)));
    return ownersFromRing(ring, std::size_t(it - ring.begin()), out,
                          max);
}

unsigned
KvRouter::segmentRanges(const Ring &ring, std::size_t seg,
                        std::uint64_t ranges[2][2])
{
    // The arc ending at point seg; segment 0 additionally owns the
    // wrap-around arc past the last point.
    unsigned nranges = 0;
    constexpr std::uint64_t maxHash = ~std::uint64_t(0);
    if (seg == 0) {
        ranges[nranges][0] = 0;
        ranges[nranges][1] = ring.front().first;
        ++nranges;
        if (ring.back().first != maxHash) {
            ranges[nranges][0] = ring.back().first + 1;
            ranges[nranges][1] = maxHash;
            ++nranges;
        }
    } else {
        ranges[nranges][0] = ring[seg - 1].first + 1;
        ranges[nranges][1] = ring[seg].first;
        ++nranges;
    }
    return nranges;
}

unsigned
KvRouter::ownersInto(Key key, NodeId *out, unsigned max) const
{
    return ownersForHash(ring_, mix64(key), out, max);
}

std::vector<NodeId>
KvRouter::owners(Key key) const
{
    std::vector<NodeId> out(params_.replication);
    out.resize(ownersInto(key, out.data(), params_.replication));
    return out;
}

// ---------------------------------------------------------------- //
// Membership
// ---------------------------------------------------------------- //

MemberState
KvRouter::member(NodeId n) const
{
    return members_.at(n).state;
}

unsigned
KvRouter::liveNodes() const
{
    unsigned live = 0;
    for (const Member &m : members_)
        live += m.state == MemberState::Live ? 1 : 0;
    return live;
}

void
KvRouter::noteTimeout(NodeId n)
{
    Member &m = members_[n];
    ++m.consecTimeouts;
    if (m.state == MemberState::Live && params_.suspectAfter > 0 &&
        m.consecTimeouts >= params_.suspectAfter) {
        m.state = MemberState::Suspect;
        suspectTransitions_.inc();
        if (params_.deadGraceUs > 0) {
            // Grace period: a suspect that shows no life before
            // this fires is declared Dead (writes then skip it and
            // clamp their quorum -- see issueWrite).
            m.graceTimer = sim_.scheduleAfter(
                sim::usToTicks(double(params_.deadGraceUs)),
                [this, n]() {
                Member &mm = members_[n];
                mm.graceTimer = sim::invalidEventId;
                if (mm.state == MemberState::Suspect) {
                    mm.state = MemberState::Dead;
                    deadTransitions_.inc();
                }
            });
        }
    }
}

void
KvRouter::noteAlive(NodeId n)
{
    Member &m = members_[n];
    // A crashed node's own local shard completions still route
    // through completeOne; they are not network proof of life.
    if (m.crashed)
        return;
    m.consecTimeouts = 0;
    if (m.state == MemberState::Suspect) {
        // Any response -- even one for a request that already
        // timed out -- recovers a suspect. Dead stays Dead: it
        // missed writes while skipped, only a rebuild readmits it.
        m.state = MemberState::Live;
        if (m.graceTimer != sim::invalidEventId) {
            sim_.cancel(m.graceTimer);
            m.graceTimer = sim::invalidEventId;
        }
    }
}

void
KvRouter::killNode(NodeId n)
{
    Member &m = members_.at(n);
    if (m.crashed)
        return;
    m.crashed = true;
    // Fail-stop: the node's network agents drop everything from
    // now (installAgents checks the flag). Detection is NOT
    // short-circuited -- peers must discover the silence through
    // the ordinary timeout path, exactly as with a real crash.
    //
    // Operations ORIGINATED at the dead node complete with Error:
    // their clients died with it. Collect ids first -- completions
    // re-enter the router and mutate pending_.
    std::vector<std::uint64_t> doomed;
    for (const auto &[id, op] : pending_) {
        if (op.origin == n)
            doomed.push_back(id);
    }
    for (std::uint64_t id : doomed) {
        auto it = pending_.find(id);
        if (it == pending_.end())
            continue;
        PendingOp op = std::move(it->second);
        pending_.erase(it);
        if (op.timer != sim::invalidEventId)
            sim_.cancel(op.timer);
        sim_.tracer().endSpan(op.routeSpan, sim_.now());
        if (op.write) {
            if (op.clientAcked)
                --backgroundWrites_;
            // The write may have reached some replicas before the
            // crash killed its bookkeeping: repair owns the rest.
            divergent_.insert(op.key);
            ledgerOpDone(op.key, op.origin, id);
            if (!op.clientAcked && op.ackDone)
                op.ackDone(KvStatus::Error);
            if (op.settled)
                op.settled();
        } else if (op.getDone) {
            op.getDone(PageBuffer{}, KvStatus::Error);
        }
    }
}

void
KvRouter::reviveNode(NodeId n)
{
    Member &m = members_.at(n);
    if (!m.crashed)
        sim::fatal("reviveNode(%u): node was not killed", n);
    m.crashed = false;
    m.consecTimeouts = 0;
    if (m.graceTimer != sim::invalidEventId) {
        sim_.cancel(m.graceTimer);
        m.graceTimer = sim::invalidEventId;
    }
    // Joining, not Live: it receives writes again (so it stops
    // falling further behind) but serves no reads until
    // rebuildNode() streamed back what it missed.
    m.state = MemberState::Joining;
}

void
KvRouter::rebuildNode(NodeId n, std::function<void()> done)
{
    if (members_.at(n).state != MemberState::Joining)
        sim::fatal("rebuildNode(%u): node is not Joining", n);
    // The rebuild IS an anti-entropy sweep: with the node Joining
    // (reconcilable again), every segment it owns compares unequal
    // and the sweep pushes the missed history across, reading
    // sources and appending at Priority::Background so serving
    // reads never queue behind recovery I/O.
    repairSweep([this, n, done = std::move(done)]() {
        Member &m = members_[n];
        if (m.state == MemberState::Joining) {
            m.state = MemberState::Live;
            m.consecTimeouts = 0;
        }
        if (done)
            done();
    });
}

void
KvRouter::startExclusive(std::function<void()> fn)
{
    if (sweepRunning_) {
        pendingExclusive_.push_back(std::move(fn));
        return;
    }
    fn();
}

void
KvRouter::releaseExclusive()
{
    // Ring changes first (they queued behind a sweep and block
    // further sweeps while they run), then the queued sweeps.
    if (!sweepRunning_ && !pendingExclusive_.empty()) {
        auto fn = std::move(pendingExclusive_.front());
        pendingExclusive_.erase(pendingExclusive_.begin());
        fn();
    }
    if (!sweepRunning_ && !queuedSweeps_.empty()) {
        auto waiters = std::make_shared<
            std::vector<std::function<void()>>>(
            std::move(queuedSweeps_));
        queuedSweeps_.clear();
        repairSweep([waiters]() {
            for (auto &w : *waiters) {
                if (w)
                    w();
            }
        });
    }
}

void
KvRouter::joinNode(NodeId n, std::function<void()> done)
{
    if (n >= cluster_.size())
        sim::fatal("joinNode(%u): no such node", n);
    startExclusive([this, n, done = std::move(done)]() mutable {
        beginRebalance(n, true, std::move(done));
    });
}

void
KvRouter::leaveNode(NodeId n, std::function<void()> done)
{
    if (n >= cluster_.size())
        sim::fatal("leaveNode(%u): no such node", n);
    startExclusive([this, n, done = std::move(done)]() mutable {
        beginRebalance(n, false, std::move(done));
    });
}

struct KvRouter::SweepState
{
    std::function<void()> done;
    std::size_t nextSeg = 0;
    unsigned outstanding = 0; //!< async repairs in flight
    /** Traversal parked on the in-flight cap (repairChunk): the
     * next repair completion below the cap restarts it. Without
     * this, a rebalance catch-up issues every push in one tick and
     * floods the controller tags foreground reads need. */
    bool stalled = false;
    bool traversalDone = false;
    /** Join/leave catch-up: traverse the finer ring, reconcile
     * old-union-new owner sets, count movedKeys, never prune. */
    bool rebalance = false;
    /** Tombstones below this stamp may prune on consistent ranges:
     * older than every write in flight when the sweep started. */
    std::uint64_t pruneBelow = 0;
};

void
KvRouter::beginRebalance(NodeId n, bool joining,
                         std::function<void()> done)
{
    // Re-validate here: the request may have queued behind a sweep
    // and the world may have moved underneath it.
    Member &m = members_[n];
    if (joining) {
        if (m.state != MemberState::Standby || m.crashed)
            sim::fatal("joinNode(%u): node is not Standby", n);
    } else {
        if (m.state != MemberState::Live)
            sim::fatal("leaveNode(%u): node is not Live", n);
    }

    auto rb = std::make_unique<Rebalance>();
    rb->oldRing = ring_;
    rb->newRing = ring_;
    if (joining) {
        rb->newRing.reserve(ring_.size() + params_.vnodes);
        for (unsigned v = 0; v < params_.vnodes; ++v)
            rb->newRing.emplace_back(
                mix64((std::uint64_t(n) << 32) | v), n);
        std::sort(rb->newRing.begin(), rb->newRing.end());
    } else {
        rb->newRing.erase(
            std::remove_if(rb->newRing.begin(), rb->newRing.end(),
                           [n](const std::pair<std::uint64_t,
                                               NodeId> &p) {
                return p.second == n;
            }),
            rb->newRing.end());
        std::vector<bool> seen(cluster_.size(), false);
        unsigned distinct = 0;
        for (const auto &p : rb->newRing) {
            if (!seen[p.second]) {
                seen[p.second] = true;
                ++distinct;
            }
        }
        if (distinct < params_.replication)
            sim::fatal("leaveNode(%u): %u nodes left cannot hold "
                       "%u replicas", n, distinct,
                       params_.replication);
    }
    // The finer ring (superset of points: new for a join, old for
    // a leave) is the granularity whose segments have constant
    // owner sets under BOTH rings -- what the catch-up walks.
    rb->finer = joining ? &rb->newRing : &rb->oldRing;
    rb->node = n;
    rb->joining = joining;
    rb->done = std::move(done);
    if (joining)
        m.state = MemberState::Joining;

    // Phase 1 from here: issueWrite sees rebalance_ and dual-writes
    // to the union owner set; the traversal below copies history.
    // sweepRunning_ doubles as the exclusive lock -- no ordinary
    // sweep (whose segment geometry assumes a stable ring) and no
    // second membership change can start mid-handoff.
    rebalance_ = std::move(rb);
    sweepRunning_ = true;
    auto state = std::make_shared<SweepState>();
    state->rebalance = true;
    sweepChunk(state);
}

void
KvRouter::rebalanceSegment(std::shared_ptr<SweepState> state,
                           std::size_t seg)
{
    const Rebalance &rb = *rebalance_;
    std::uint64_t ranges[2][2];
    unsigned nranges = segmentRanges(*rb.finer, seg, ranges);
    for (unsigned r = 0; r < nranges; ++r) {
        std::uint64_t lo = ranges[r][0], hi = ranges[r][1];
        // Replica set of this arc: the union of its owners under
        // the old and the new ring (constant across the arc, by
        // choice of the finer ring). The newest-stamped state of
        // every key in the arc ends up on every union member --
        // in particular on the next owners that lack it.
        NodeId uni[maxReplication];
        unsigned nuni =
            ownersForHash(rb.oldRing, lo, uni, params_.replication);
        NodeId nown[maxReplication];
        unsigned nnew =
            ownersForHash(rb.newRing, lo, nown, params_.replication);
        for (unsigned i = 0; i < nnew; ++i) {
            if (std::find(uni, uni + nuni, nown[i]) != uni + nuni)
                continue;
            if (nuni >= maxReplication)
                sim::fatal("owner union exceeds maxReplication");
            uni[nuni++] = nown[i];
        }
        // Only reconcilable members participate; a Dead or crashed
        // replica keeps its divergence marks for a later sweep.
        NodeId rec[maxReplication];
        unsigned nrec = 0;
        for (unsigned i = 0; i < nuni; ++i) {
            MemberState ms = members_[uni[i]].state;
            if (!members_[uni[i]].crashed &&
                (ms == MemberState::Live ||
                 ms == MemberState::Suspect ||
                 ms == MemberState::Joining))
                rec[nrec++] = uni[i];
        }
        if (nrec >= 2)
            sweepRange(state, rec, nrec, lo, hi, false);
    }
}

void
KvRouter::finishRebalance(const std::shared_ptr<SweepState> &state)
{
    (void)state;
    // Phase 2, the flip: atomic within the event -- every operation
    // issued after this line routes on the new ring.
    std::unique_ptr<Rebalance> rb = std::move(rebalance_);
    Ring old_ring = std::move(rb->oldRing);
    ring_ = std::move(rb->newRing);
    ++ringEpoch_;
    Member &m = members_[rb->node];
    if (rb->joining) {
        m.state = MemberState::Live;
        m.consecTimeouts = 0;
    } else {
        m.state = MemberState::Standby;
    }
    // Purge every cached key whose owner set changed: a cached
    // version lives in ONE shard's counter space, and the arc that
    // moved now validates against a different shard. In-flight
    // conditional gets from before the flip are handled by the
    // epoch gate in finishGet.
    for (auto &c : caches_) {
        if (!c)
            continue;
        c->invalidateIf([this, &old_ring](Key k) {
            NodeId a[maxReplication], b[maxReplication];
            std::uint64_t h = mix64(k);
            unsigned na = ownersForHash(old_ring, h, a,
                                        params_.replication);
            unsigned nb =
                ownersForHash(ring_, h, b, params_.replication);
            if (na != nb)
                return true;
            for (unsigned i = 0; i < na; ++i) {
                if (a[i] != b[i])
                    return true;
            }
            return false;
        });
    }
    sweepRunning_ = false;
    if (rb->done)
        rb->done();
    releaseExclusive();
}

// ---------------------------------------------------------------- //
// Read routing
// ---------------------------------------------------------------- //

NodeId
KvRouter::readReplica(NodeId origin, Key key) const
{
    NodeId target;
    if (steerTarget(origin, key, &target) &&
        members_[target].state != MemberState::Dead)
        return target;
    bool diverted = false;
    if (pickReadTarget(origin, key, &target, &diverted))
        return target;
    return defaultReadReplica(origin, key);
}

bool
KvRouter::steerTarget(NodeId origin, Key key, NodeId *out) const
{
    // In-flight ledger: a quorum-acked write from THIS origin still
    // draining to stragglers steers this origin's reads to a
    // replica that acked it, or the writing client could read its
    // own write's predecessor off a straggler. Reads from other
    // origins keep the plain spread (see InflightWrite for why the
    // narrow scope matters). Uses the entry's owner list, so the
    // common unconstrained read never pays a second ring walk.
    auto lit = inflightWrites_.find(key);
    if (lit == inflightWrites_.end())
        return false;
    const InflightWrite &w = lit->second;
    std::uint8_t mask = 0;
    bool wrote = false;
    for (const auto &wr : w.writers) {
        if (wr.origin == origin && wr.ops > 0) {
            wrote = true;
            if (wr.ackedOp != 0)
                mask = wr.ackedMask;
            break;
        }
    }
    if (!wrote)
        return false;
    // The origin's own shard applied its writes synchronously:
    // local stays both correct and free.
    for (unsigned i = 0; i < w.ownerCount; ++i) {
        if (w.owners[i] == origin) {
            *out = origin;
            return true;
        }
    }
    if (mask != 0) {
        NodeId safe[maxReplication];
        unsigned nsafe = 0;
        for (unsigned i = 0; i < w.ownerCount; ++i) {
            if (mask & (std::uint8_t(1) << i))
                safe[nsafe++] = w.owners[i];
        }
        if (nsafe > 0) {
            *out = safe[origin % nsafe];
            return true;
        }
    }
    // Nothing client-acked yet: no obligation to steer.
    return false;
}

NodeId
KvRouter::defaultReadReplica(NodeId origin, Key key) const
{
    // Allocation-free: gets are the 95% case and run once per op.
    NodeId own[maxReplication];
    unsigned count = ownersInto(key, own, params_.replication);
    for (unsigned i = 0; i < count; ++i) {
        if (own[i] == origin)
            return origin; // a local replica: zero network hops
    }
    // Spread different origins across the replica set so hot keys
    // draw read bandwidth from every copy.
    return own[origin % count];
}

bool
KvRouter::pickReadTarget(NodeId origin, Key key, NodeId *out,
                         bool *diverted) const
{
    NodeId own[maxReplication];
    unsigned count = ownersInto(key, own, params_.replication);
    if (count == 0)
        return false;
    NodeId plain = own[origin % count];
    for (unsigned i = 0; i < count; ++i) {
        if (own[i] == origin) {
            plain = origin;
            break;
        }
    }
    // The origin's own shard needs no liveness check -- if the
    // origin were gone, nobody would be asking.
    if (plain == origin ||
        members_[plain].state == MemberState::Live) {
        *out = plain;
        *diverted = false;
        return true;
    }
    // Fail over, keeping the origin-keyed spread: a Live owner
    // first; a Suspect one as last resort (it may merely be slow,
    // and slow beats Error). Dead and Joining never serve reads --
    // both are known to be missing writes.
    const MemberState passes[2] = {MemberState::Live,
                                   MemberState::Suspect};
    for (MemberState want : passes) {
        for (unsigned k = 0; k < count; ++k) {
            NodeId cand = own[(origin + k) % count];
            if (members_[cand].state != want)
                continue;
            *out = cand;
            *diverted = cand != plain;
            return true;
        }
    }
    return false;
}

bool
KvRouter::pickRetryTarget(Key key, NodeId origin,
                          const NodeId *tried, unsigned ntried,
                          NodeId *out) const
{
    NodeId own[maxReplication];
    unsigned count = ownersInto(key, own, params_.replication);
    const MemberState passes[2] = {MemberState::Live,
                                   MemberState::Suspect};
    for (MemberState want : passes) {
        for (unsigned i = 0; i < count; ++i) {
            NodeId cand = own[i];
            if (cand == origin ||
                members_[cand].state != want)
                continue;
            if (std::find(tried, tried + ntried, cand) !=
                tried + ntried)
                continue;
            *out = cand;
            return true;
        }
    }
    return false;
}

void
KvRouter::get(NodeId origin, Key key, GetDone done,
              std::uint64_t trace)
{
    std::uint64_t route =
        sim_.tracer().beginSpan(trace, "route", sim_.now());
    // Routing, in priority order: the read-your-writes steer, then
    // the liveness-aware deterministic spread. A read that ends up
    // anywhere but the PLAIN deterministic replica (steered,
    // failed over, or later retried) must go out unconditional and
    // must not fill the cache -- shard versions are per-shard
    // counters, and a cached version from replica A coincidentally
    // matching replica B's counter would confirm a stale value.
    NodeId replica;
    bool steered = false;
    NodeId steer;
    if (steerTarget(origin, key, &steer) &&
        members_[steer].state != MemberState::Dead) {
        replica = steer;
        steered = replica != defaultReadReplica(origin, key);
    } else {
        bool diverted = false;
        if (!pickReadTarget(origin, key, &replica, &diverted)) {
            // Every owner is Dead or Joining: nothing can serve
            // this read. Fail asynchronously -- callers expect it.
            failedReads_.inc();
            sim_.tracer().endSpan(route, sim_.now());
            sim_.scheduleAfter(0, [done = std::move(done)]() {
                done(PageBuffer{}, KvStatus::Error);
            });
            return;
        }
        steered = diverted;
    }
    if (replica == origin) {
        localOps_.inc();
        sim::Tick t0 = sim_.now();
        std::uint64_t span =
            sim_.tracer().beginSpan(route, "shard.get", t0);
        // `this` is safe to capture raw: the continuation only runs
        // while the shard is alive, and the shard dies with us.
        shards_[origin]->get(key,
                             [this, origin, key, t0, span, route,
                              done = std::move(done)](
                                 PageBuffer v, KvStatus st,
                                 std::uint64_t) mutable {
            sim::Tick now = sim_.now();
            stageShard_.record(now - t0);
            stageNet_.record(0);
            sim_.tracer().endSpan(span, now);
            if (st == KvStatus::Error) {
                // The local durable copy is unreadable (the flash
                // server's retry ladder exhausted; the shard marked
                // the key corrupt). Serve the client from another
                // replica and heal the local copy on the way.
                localCorruption_.inc();
                divergent_.insert(key);
                sim_.tracer().mark(route, "local.corrupt", now);
                NodeId other;
                if (pickRetryTarget(key, origin, nullptr, 0,
                                    &other)) {
                    healLocalGet(origin, other, key, route,
                                 std::move(done));
                    return;
                }
                failedReads_.inc();
            }
            sim_.tracer().endSpan(route, now);
            done(std::move(v), st);
        },
                             flash::Priority::Read, span);
        return;
    }
    remoteOps_.inc();
    // Hot-key cache: a cached (value, version) pair turns this into
    // a conditional get. The replica confirms an unchanged version
    // with a header-only reply and the value is served locally.
    std::uint64_t cached_version = 0;
    if (KvCache *cache = cacheFor(origin)) {
        if (!steered) {
            cache->touch(key);
            if (const KvCache::Entry *e = cache->lookup(key))
                cached_version = e->version;
            else
                sim_.tracer().mark(route, "cache.miss", sim_.now());
        }
    }
    std::uint64_t id = nextReqId_++;
    PendingOp &op = pending_[id];
    op.sent[0] = replica;
    op.sentCount = 1;
    op.attempts = 1;
    op.remaining = 1;
    op.getDone = std::move(done);
    op.key = key;
    op.origin = origin;
    op.cachedVersion = cached_version;
    op.steered = steered;
    op.epoch = ringEpoch_;
    op.trace = trace;
    op.routeSpan = route;
    op.sentTick = sim_.now();

    KvRequest req;
    req.reqId = id;
    req.key = key;
    req.op = KvOp::Get;
    req.cachedVersion = cached_version;
    req.trace =
        sim_.tracer().beginSpan(route, "net.req", op.sentTick);
    cluster_.network()
        .endpoint(origin, epKvService)
        .send(replica, kvHeaderBytes, std::move(req));
    if (params_.readTimeoutUs > 0)
        armOpTimer(id, params_.readTimeoutUs);
}

void
KvRouter::healLocalGet(NodeId origin, NodeId from, Key key,
                       std::uint64_t route, GetDone done)
{
    // Failover read at serving priority (the client is waiting);
    // the write-back push below rides Background inside repairPut.
    retriedReads_.inc();
    std::uint64_t span = sim_.tracer().beginSpan(
        route, "shard.heal_get", sim_.now());
    shards_[from]->get(
        key,
        [this, origin, from, key, span, route,
         done = std::move(done)](PageBuffer v, KvStatus st,
                                 std::uint64_t) mutable {
        sim::Tick now = sim_.now();
        sim_.tracer().endSpan(span, now);
        if (st == KvStatus::Ok) {
            // Push the surviving copy back under ITS stamp: the
            // corrupt local entry admits the push even at an equal
            // stamp (see KvShard::HashState), and the guard makes
            // the heal idempotent against racing writes.
            std::uint64_t stamp = 0;
            bool live = false;
            if (shards_[from]->keyState(key, &stamp, &live) &&
                live) {
                PageBuffer copy = v;
                shards_[origin]->repairPut(
                    key, std::move(copy), stamp,
                    [this, alive = alive_](KvStatus rst) {
                    if (!*alive)
                        return;
                    if (rst == KvStatus::Ok)
                        repairedKeys_.inc();
                });
            }
        } else if (st == KvStatus::Error) {
            failedReads_.inc();
        }
        sim_.tracer().endSpan(route, now);
        done(std::move(v), st);
    },
        flash::Priority::Read, span);
}

// ---------------------------------------------------------------- //
// Write path
// ---------------------------------------------------------------- //

void
KvRouter::put(NodeId origin, Key key, PageBuffer value, AckDone done,
              SettledDone settled, std::uint64_t trace)
{
    issueWrite(origin, key, KvOp::Put, std::move(value),
               std::move(done), std::move(settled), trace);
}

void
KvRouter::del(NodeId origin, Key key, AckDone done,
              SettledDone settled, std::uint64_t trace)
{
    issueWrite(origin, key, KvOp::Delete, PageBuffer{},
               std::move(done), std::move(settled), trace);
}

void
KvRouter::issueWrite(NodeId origin, Key key, KvOp kvop,
                     PageBuffer value, AckDone done,
                     SettledDone settled, std::uint64_t trace)
{
    std::uint64_t route =
        sim_.tracer().beginSpan(trace, "route", sim_.now());
    // The origin's cached copy (if any) is dead the moment the
    // overwrite is issued; validation would catch it, but dropping
    // it now saves the wasted conditional round.
    if (KvCache *cache = cacheFor(origin))
        cache->invalidate(key);

    NodeId own[maxReplication];
    unsigned count = ownersInto(key, own, params_.replication);

    // Quorum-eligible targets: the current ring's owners minus the
    // Dead ones. Suspect and Joining owners are still written --
    // a suspect may merely be slow, and a joining node must stop
    // falling behind -- but a Dead replica is skipped outright:
    // waiting out its timeout on every write would put the crash
    // on the client latency path.
    NodeId eligible[maxReplication];
    unsigned nelig = 0;
    bool clamped = false;
    for (unsigned i = 0; i < count; ++i) {
        if (members_[own[i]].state == MemberState::Dead)
            clamped = true;
        else
            eligible[nelig++] = own[i];
    }
    if (clamped && nelig > 0) {
        // Durable on fewer than the configured replicas: certain
        // divergence, recorded up front so repair owns it, and the
        // exposure is observable (degradedWrites).
        divergent_.insert(key);
        degradedWrites_.inc();
    }
    if (nelig == 0) {
        sim_.tracer().endSpan(route, sim_.now());
        sim_.scheduleAfter(0, [done = std::move(done),
                               settled = std::move(settled)]() {
            if (done)
                done(KvStatus::Error);
            if (settled)
                settled();
        });
        return;
    }

    // Dual-write (join/leave phase 1): next-ring-only owners ride
    // along as aux targets, excluded from the quorum -- the client
    // never waits on a node that is still catching up, but new
    // writes stop widening the gap the catch-up sweep must close.
    NodeId aux[maxReplication];
    unsigned naux = 0;
    if (rebalance_) {
        NodeId nown[maxReplication];
        unsigned nnew = ownersForHash(rebalance_->newRing,
                                      mix64(key), nown,
                                      params_.replication);
        for (unsigned i = 0; i < nnew; ++i) {
            if (std::find(own, own + count, nown[i]) != own + count)
                continue;
            if (members_[nown[i]].state == MemberState::Dead) {
                divergent_.insert(key);
                continue;
            }
            aux[naux++] = nown[i];
        }
    }

    std::uint64_t id = nextReqId_++;
    std::uint64_t stamp = ++nextStamp_;
    unsigned total = nelig + naux;
    NodeId targets[2 * maxReplication];
    {
        PendingOp &op = pending_[id];
        for (unsigned i = 0; i < nelig; ++i)
            op.sent[i] = eligible[i];
        for (unsigned i = 0; i < naux; ++i)
            op.sent[nelig + i] = aux[i];
        op.sentCount = std::uint8_t(total);
        op.eligible = std::uint8_t(nelig);
        op.remaining = total;
        op.quorum = std::min(params_.writeQuorum, nelig);
        op.write = true;
        op.ackDone = std::move(done);
        op.settled = std::move(settled);
        op.key = key;
        op.origin = origin;
        op.stamp = stamp;
        op.epoch = ringEpoch_;
        op.trace = trace;
        op.routeSpan = route;
        op.sentTick = sim_.now();
        for (unsigned i = 0; i < total; ++i)
            targets[i] = op.sent[i];
    }
    ledgerOpen(key, origin, eligible, nelig);

    auto bytes = kvHeaderBytes +
        static_cast<std::uint32_t>(value.size());
    for (unsigned i = 0; i < total; ++i) {
        // The last replica takes the buffer, the others a copy.
        PageBuffer copy =
            i + 1 < total ? value : std::move(value);
        NodeId replica = targets[i];
        if (replica == origin) {
            localOps_.inc();
            sim::Tick t0 = sim_.now();
            std::uint64_t span = sim_.tracer().beginSpan(
                route,
                kvop == KvOp::Put ? "shard.put" : "shard.del", t0);
            auto ack = [this, id, replica, t0, span](KvStatus st) {
                sim::Tick now = sim_.now();
                stageShard_.record(now - t0);
                stageNet_.record(0);
                sim_.tracer().endSpan(span, now);
                completeOne(id, st, PageBuffer{}, 0, replica);
            };
            if (kvop == KvOp::Put)
                shards_[origin]->put(key, std::move(copy), stamp,
                                     std::move(ack),
                                     flash::Priority::Read, span);
            else
                shards_[origin]->del(key, stamp, std::move(ack));
            continue;
        }
        remoteOps_.inc();
        KvRequest req;
        req.reqId = id;
        req.key = key;
        req.op = kvop;
        req.stamp = stamp;
        req.value = std::move(copy);
        req.trace =
            sim_.tracer().beginSpan(route, "net.req", sim_.now());
        cluster_.network()
            .endpoint(origin, epKvService)
            .send(replica,
                  kvop == KvOp::Put ? bytes : kvHeaderBytes,
                  std::move(req));
    }
    if (params_.writeTimeoutUs > 0)
        armOpTimer(id, params_.writeTimeoutUs);
}

void
KvRouter::ledgerOpen(Key key, NodeId origin, const NodeId *own,
                     unsigned count)
{
    InflightWrite &w = inflightWrites_[key];
    if (w.ops == 0) {
        w.ownerCount = count;
        for (unsigned i = 0; i < count; ++i)
            w.owners[i] = own[i];
    }
    ++w.ops;
    // Register the writing origin: its reads are the ones the
    // ledger must steer (read-your-writes is per session). Reuse a
    // drained slot before growing.
    InflightWrite::Writer *slot = nullptr;
    for (auto &wr : w.writers) {
        if (wr.origin == origin) {
            slot = &wr;
            break;
        }
        if (slot == nullptr && wr.ops == 0)
            slot = &wr;
    }
    if (slot == nullptr || slot->origin != origin) {
        if (slot == nullptr) {
            w.writers.emplace_back();
            slot = &w.writers.back();
        } else {
            *slot = InflightWrite::Writer{};
        }
        slot->origin = origin;
    }
    ++slot->ops;
}

void
KvRouter::ledgerClientAcked(Key key, NodeId origin,
                            std::uint64_t op_id,
                            std::uint8_t acked_mask)
{
    auto it = inflightWrites_.find(key);
    if (it == inflightWrites_.end())
        return;
    InflightWrite &w = it->second;
    for (auto &wr : w.writers) {
        if (wr.origin == origin && wr.ops > 0) {
            wr.ackedOp = op_id;
            wr.ackedMask = acked_mask;
            return;
        }
    }
}

void
KvRouter::ledgerLateAck(Key key, NodeId origin, std::uint64_t op_id,
                        unsigned idx)
{
    auto it = inflightWrites_.find(key);
    if (it == inflightWrites_.end())
        return;
    InflightWrite &w = it->second;
    auto bit = std::uint8_t(std::uint8_t(1) << idx);
    for (auto &wr : w.writers) {
        if (wr.origin == origin && wr.ackedOp == op_id) {
            wr.ackedMask |= bit;
            return;
        }
    }
}

void
KvRouter::ledgerOpDone(Key key, NodeId origin, std::uint64_t op_id)
{
    auto it = inflightWrites_.find(key);
    if (it == inflightWrites_.end())
        sim::panic("ledger completion for untracked key");
    InflightWrite &w = it->second;
    for (auto &wr : w.writers) {
        if (wr.origin == origin && wr.ops > 0) {
            --wr.ops;
            // The op reached every replica: its steer (if it was
            // the active one) is obsolete -- any replica serves it.
            if (wr.ackedOp == op_id) {
                wr.ackedOp = 0;
                wr.ackedMask = 0;
            }
            break;
        }
    }
    if (--w.ops == 0)
        inflightWrites_.erase(it);
}

void
KvRouter::multiGet(NodeId origin, std::vector<Key> keys,
                   MultiGetDone done, std::uint64_t trace)
{
    struct Ctx
    {
        std::vector<PageBuffer> values;
        std::vector<KvStatus> statuses;
        std::size_t remaining = 0;
        MultiGetDone done;
    };
    auto ctx = std::make_shared<Ctx>();
    ctx->values.resize(keys.size());
    ctx->statuses.assign(keys.size(), KvStatus::NotFound);
    ctx->remaining = keys.size();
    ctx->done = std::move(done);
    if (keys.empty()) {
        sim_.scheduleAfter(0, [ctx]() {
            ctx->done(std::move(ctx->values),
                      std::move(ctx->statuses));
        });
        return;
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        get(origin, keys[i],
            [ctx, i](PageBuffer v, KvStatus st) {
            ctx->values[i] = std::move(v);
            ctx->statuses[i] = st;
            if (--ctx->remaining == 0)
                ctx->done(std::move(ctx->values),
                          std::move(ctx->statuses));
        },
            trace);
    }
}

void
KvRouter::installAgents()
{
    auto &net = cluster_.network();
    for (unsigned n = 0; n < cluster_.size(); ++n) {
        // Shard agent: serve get/put/delete arriving from peers.
        // The agents outlive nothing -- they capture the liveness
        // flag because network deliveries already in flight can
        // fire after the router died; and a crashed node's agent
        // swallows everything (fail-stop: peers hear silence, the
        // payload slot still recycles).
        net.endpoint(NodeId(n), epKvService)
            .setReceiveHandler([this, alive = alive_,
                                n](net::Message msg) {
            if (!*alive)
                return;
            auto req = msg.payload.take<KvRequest>();
            if (members_[n].crashed)
                return;
            NodeId requester = msg.src;
            net::EndpointId reply_ep = req.replyEndpoint;
            serveLocal(NodeId(n), std::move(req),
                       [this, alive, n, requester,
                        reply_ep](KvResponse resp) {
                if (!*alive || members_[n].crashed)
                    return;
                auto bytes = kvHeaderBytes +
                    static_cast<std::uint32_t>(resp.value.size());
                cluster_.network()
                    .endpoint(NodeId(n), reply_ep)
                    .send(requester, bytes, std::move(resp));
            });
        });
        // Response sink: complete the origin's pending operation.
        net.endpoint(NodeId(n), epKvData)
            .setReceiveHandler([this, alive = alive_,
                                n](net::Message msg) {
            if (!*alive)
                return;
            auto resp = msg.payload.take<KvResponse>();
            if (members_[n].crashed)
                return;
            sim_.tracer().endSpan(resp.trace, sim_.now());
            completeOne(resp.reqId, resp.status,
                        std::move(resp.value), resp.version,
                        msg.src, false, resp.serviceTicks);
        });
    }
}

void
KvRouter::serveLocal(NodeId node, KvRequest req,
                     std::function<void(KvResponse)> reply)
{
    std::uint64_t id = req.reqId;
    // The request's net.req span ends on arrival; the shard span
    // opens as its sibling (both children of the origin's route
    // span), and the reply opens net.resp the same way. `start`
    // feeds KvResponse::serviceTicks, the always-on serving-side
    // time the origin uses to split the round trip into
    // kv.stage.shard and kv.stage.net without any tracing.
    // Capturing `this` raw in the shard continuations is safe: they
    // only run while the shard is alive, and the shard dies with us.
    sim::Tick start = sim_.now();
    sim_.tracer().endSpan(req.trace, start);
    switch (req.op) {
      case KvOp::Get: {
        std::uint64_t span =
            sim_.tracer().beginSibling(req.trace, "shard.get", start);
        shards_[node]->getIfNewer(
            req.key, req.cachedVersion,
            [this, id, start, span,
             reply = std::move(reply)](PageBuffer v, KvStatus st,
                                       std::uint64_t version) {
            sim::Tick now = sim_.now();
            KvResponse resp;
            resp.reqId = id;
            resp.status = st;
            resp.version = version;
            resp.value = std::move(v);
            resp.serviceTicks = now - start;
            sim_.tracer().endSpan(span, now);
            resp.trace =
                sim_.tracer().beginSibling(span, "net.resp", now);
            reply(std::move(resp));
        },
            flash::Priority::Read, span);
        return;
      }
      case KvOp::Put: {
        std::uint64_t span =
            sim_.tracer().beginSibling(req.trace, "shard.put", start);
        shards_[node]->put(req.key, std::move(req.value), req.stamp,
                           [this, id, start, span,
                            reply = std::move(reply)](KvStatus st) {
            sim::Tick now = sim_.now();
            KvResponse resp;
            resp.reqId = id;
            resp.status = st;
            resp.serviceTicks = now - start;
            sim_.tracer().endSpan(span, now);
            resp.trace =
                sim_.tracer().beginSibling(span, "net.resp", now);
            reply(std::move(resp));
        },
                           flash::Priority::Read, span);
        return;
      }
      case KvOp::Delete: {
        std::uint64_t span =
            sim_.tracer().beginSibling(req.trace, "shard.del", start);
        shards_[node]->del(req.key, req.stamp,
                           [this, id, start, span,
                            reply = std::move(reply)](KvStatus st) {
            sim::Tick now = sim_.now();
            KvResponse resp;
            resp.reqId = id;
            resp.status = st;
            resp.serviceTicks = now - start;
            sim_.tracer().endSpan(span, now);
            resp.trace =
                sim_.tracer().beginSibling(span, "net.resp", now);
            reply(std::move(resp));
        });
        return;
      }
    }
    sim::panic("unknown KV op");
}

void
KvRouter::armOpTimer(std::uint64_t id, std::uint64_t us)
{
    auto it = pending_.find(id);
    if (it == pending_.end())
        sim::panic("arming timer for unknown KV request");
    PendingOp &op = it->second;
    if (op.timer != sim::invalidEventId)
        sim_.cancel(op.timer);
    op.timer = sim_.scheduleAfter(
        sim::usToTicks(double(us)), [this, id]() {
        auto it2 = pending_.find(id);
        if (it2 == pending_.end())
            return;
        PendingOp &op2 = it2->second;
        op2.timer = sim::invalidEventId;
        // Synthesize a failure for every unresponded target (for a
        // read there is exactly one: the latest attempt; earlier
        // ones closed their slots when THEIR timeout retried).
        // Gather first -- completeOne may retire the op mid-loop.
        NodeId silent[2 * maxReplication];
        unsigned nsilent = 0;
        for (unsigned i = 0; i < op2.sentCount; ++i) {
            if (!(op2.respondedMask & (1u << i)))
                silent[nsilent++] = op2.sent[i];
        }
        for (unsigned i = 0; i < nsilent; ++i)
            completeOne(id, KvStatus::Error, PageBuffer{}, 0,
                        silent[i], true);
    });
}

void
KvRouter::completeOne(std::uint64_t req_id, KvStatus st,
                      PageBuffer value, std::uint64_t version,
                      NodeId from, bool timed_out,
                      sim::Tick service_ticks)
{
    auto it = pending_.find(req_id);
    unsigned slot = ~0u;
    if (it != pending_.end()) {
        const PendingOp &probe = it->second;
        for (unsigned i = 0; i < probe.sentCount; ++i) {
            if (probe.sent[i] == from &&
                !(probe.respondedMask & (1u << i))) {
                slot = i;
                break;
            }
        }
    }
    if (it == pending_.end() || slot == ~0u) {
        // The request already retired: it timed out (and possibly
        // failed over), or its origin died. The response is
        // dropped -- but it is proof its sender is alive, which
        // matters exactly when the sender was slow enough to be
        // suspected.
        lateResponses_.inc();
        noteAlive(from);
        return;
    }
    PendingOp &op = it->second;
    op.respondedMask |= std::uint16_t(1u << slot);
    --op.remaining;
    if (timed_out) {
        noteTimeout(from);
        sim_.tracer().mark(op.routeSpan, "rpc.timeout", sim_.now());
        if (op.write)
            writeTimeouts_.inc();
        else
            readTimeouts_.inc();
    } else {
        noteAlive(from);
        if (from != op.origin) {
            // Always-on stage attribution: the serving side
            // reported its own time, the rest of the round trip is
            // the network's.
            sim::Tick rtt = sim_.now() - op.sentTick;
            stageShard_.record(service_ticks);
            stageNet_.record(rtt > service_ticks
                                 ? rtt - service_ticks
                                 : 0);
        }
    }

    if (!op.write) {
        // Read path: one target in flight at a time.
        if (!timed_out && st != KvStatus::Error) {
            if (op.timer != sim::invalidEventId)
                sim_.cancel(op.timer);
            PendingOp fin = std::move(op);
            pending_.erase(it);
            fin.status = st;
            fin.version = version;
            fin.value = std::move(value);
            finishGet(std::move(fin));
            return;
        }
        // A real storage Error (not a synthesized timeout) means
        // the serving replica's durable copy is unreadable -- it
        // marked itself corrupt. Record the divergence so the next
        // sweep pushes a healthy copy across even if every retry
        // below also fails.
        if (!timed_out && st == KvStatus::Error)
            divergent_.insert(op.key);
        // Timeout or storage error: fail over to another replica.
        // The retry is unconditional and its result never fills
        // the cache -- it answers from a different replica's
        // version space (see get()).
        NodeId next;
        if (op.attempts <= params_.readRetries &&
            pickRetryTarget(op.key, op.origin, op.sent,
                            op.sentCount, &next)) {
            retriedReads_.inc();
            remoteOps_.inc();
            op.steered = true;
            op.cachedVersion = 0;
            op.sent[op.sentCount++] = next;
            ++op.attempts;
            ++op.remaining;
            op.sentTick = sim_.now();
            KvRequest req;
            req.reqId = req_id;
            req.key = op.key;
            req.op = KvOp::Get;
            req.trace = sim_.tracer().beginSpan(
                op.routeSpan, "net.req", op.sentTick);
            cluster_.network()
                .endpoint(op.origin, epKvService)
                .send(next, kvHeaderBytes, std::move(req));
            if (params_.readTimeoutUs > 0)
                armOpTimer(req_id, params_.readTimeoutUs);
            return;
        }
        failedReads_.inc();
        if (op.timer != sim::invalidEventId)
            sim_.cancel(op.timer);
        PendingOp fin = std::move(op);
        pending_.erase(it);
        fin.status = KvStatus::Error;
        fin.value = PageBuffer{};
        finishGet(std::move(fin));
        return;
    }

    // Write path. Eligible slots feed the quorum; aux (dual-write
    // catch-up) slots only feed the divergence set -- the catch-up
    // sweep owns whatever they miss.
    if (slot < op.eligible) {
        if (st == KvStatus::Ok) {
            ++op.okAcks;
            // Record which replica acked Ok (durable implies
            // applied): the bit feeds the read-your-writes steer.
            auto lit = inflightWrites_.find(op.key);
            if (lit != inflightWrites_.end()) {
                const InflightWrite &w = lit->second;
                for (unsigned i = 0; i < w.ownerCount; ++i) {
                    if (w.owners[i] == from) {
                        op.ackedMask |= std::uint8_t(1) << i;
                        if (op.clientAcked)
                            ledgerLateAck(op.key, op.origin,
                                          req_id, i);
                        break;
                    }
                }
            }
        } else {
            ++op.failed;
            if (op.status == KvStatus::Ok)
                op.status = st;
        }
    } else if (st != KvStatus::Ok) {
        divergent_.insert(op.key);
    }

    bool last = op.remaining == 0;

    // Quorum decision: the client completes on the W-th Ok, or as
    // soon as the failures make W unreachable. With all replies in,
    // one of the two has necessarily triggered.
    AckDone fire_client;
    KvStatus client_status = KvStatus::Ok;
    if (!op.clientAcked) {
        if (op.okAcks >= op.quorum) {
            op.clientAcked = true;
            fire_client = std::move(op.ackDone);
        } else if (op.failed > op.eligible - op.quorum) {
            op.clientAcked = true;
            fire_client = std::move(op.ackDone);
            client_status = op.status;
        }
    }

    if (!last) {
        // Stragglers still out: the op stays pending in the
        // background. Fire the client last -- the callback may
        // re-enter the router and grow pending_, invalidating op.
        if (fire_client) {
            // The route span measures client-perceived latency: it
            // ends at the ack, not at settlement. Straggler spans
            // left open are closed when the caller ends the trace.
            sim_.tracer().endSpan(op.routeSpan, sim_.now());
            op.routeSpan = 0;
            ++backgroundWrites_;
            if (backgroundWrites_ > maxBackgroundWrites_)
                maxBackgroundWrites_ = backgroundWrites_;
            if (client_status == KvStatus::Ok)
                ledgerClientAcked(op.key, op.origin, req_id,
                                  op.ackedMask);
            fire_client(client_status);
        }
        return;
    }

    // Last replica reply: retire the op and the ledger entry, and
    // record divergence (a mixed outcome means some replicas hold
    // the new value and at least one rolled back or went silent --
    // repairSweep() owns closing that window; see kv_types.hh).
    if (op.timer != sim::invalidEventId)
        sim_.cancel(op.timer);
    bool was_background = op.clientAcked && !fire_client;
    Key key = op.key;
    NodeId origin = op.origin;
    unsigned failed = op.failed, eligible = op.eligible;
    SettledDone settled = std::move(op.settled);
    std::uint64_t route_span = op.routeSpan;
    pending_.erase(it);
    sim_.tracer().endSpan(route_span, sim_.now());
    ledgerOpDone(key, origin, req_id);
    if (was_background)
        --backgroundWrites_;
    if (failed != 0 && failed < eligible)
        divergent_.insert(key);
    if (fire_client)
        fire_client(client_status);
    if (settled)
        settled();
}

// ---------------------------------------------------------------- //
// Anti-entropy repair and catch-up traversal
// ---------------------------------------------------------------- //

/**
 * One sweep (or rebalance catch-up) in flight: a cursor over the
 * traversed ring's segments plus a count of asynchronous repair
 * pushes still outstanding. The traversal walks segments in chunks
 * (yielding to the event loop between chunks -- repair is
 * maintenance, not serving), compares replica digests per segment,
 * and fires repairs fire-and-forget; completion runs only after
 * the cursor finished AND every repair completed.
 */
void
KvRouter::repairSweep(std::function<void()> done)
{
    if (sweepRunning_) {
        // A sweep or membership handoff is mid-flight (possibly
        // the periodic timer's): queue this request and serve
        // every queued caller with one fresh full sweep once the
        // current one completes. The completion contract holds --
        // the caller's done still fires only after a whole-ring
        // pass that started at or after the request.
        queuedSweeps_.push_back(std::move(done));
        return;
    }
    sweepRunning_ = true;
    auto state = std::make_shared<SweepState>();
    state->done = std::move(done);
    // Tombstones older than every in-flight write are stable on
    // digest-identical ranges: safe to drop everywhere at once.
    state->pruneBelow = nextStamp_ + 1;
    for (const auto &[id, op] : pending_) {
        (void)id;
        if (op.write && op.stamp < state->pruneBelow)
            state->pruneBelow = op.stamp;
    }
    sweepChunk(state);
}

void
KvRouter::sweepChunk(std::shared_ptr<SweepState> state)
{
    const bool reb = state->rebalance;
    std::size_t total =
        reb ? rebalance_->finer->size() : ring_.size();
    unsigned budget = params_.repairChunk;
    while (budget-- > 0 && state->nextSeg < total &&
           state->outstanding < params_.repairChunk) {
        if (reb)
            rebalanceSegment(state, state->nextSeg++);
        else
            sweepSegment(state, state->nextSeg++);
    }
    if (state->nextSeg < total) {
        if (state->outstanding >= params_.repairChunk) {
            // In-flight cap reached: park the traversal until the
            // pushes drain. This is the throttle that keeps a bulk
            // catch-up (rebuild, join) from saturating the very
            // nodes still serving foreground reads.
            state->stalled = true;
            return;
        }
        // Yield between chunks: serving traffic interleaves.
        sim_.scheduleAfter(0, [this, state, alive = alive_]() {
            if (*alive)
                sweepChunk(state);
        });
        return;
    }
    state->traversalDone = true;
    sweepFinish(state);
}

void
KvRouter::sweepFinish(const std::shared_ptr<SweepState> &state)
{
    if (!state->traversalDone || state->outstanding != 0)
        return;
    if (state->rebalance) {
        finishRebalance(state);
        return;
    }
    sweepRunning_ = false;
    repairSweeps_.inc();
    if (state->done)
        state->done();
    // Whoever queued behind this sweep -- a ring change, or repair
    // requests that arrived mid-sweep -- runs now. (The done
    // callback above may itself have started a sweep; if so, THAT
    // sweep's finish drains the queues instead.)
    releaseExclusive();
}

void
KvRouter::sweepSegment(std::shared_ptr<SweepState> state,
                       std::size_t seg)
{
    // Every key hashing into segment seg -- the ring arc ending at
    // point seg -- maps to the same replica set: the first R
    // distinct nodes walking the ring from that point.
    NodeId own[maxReplication];
    unsigned count =
        ownersFromRing(ring_, seg, own, params_.replication);
    if (count < 2)
        return; // unreplicated: nothing to reconcile

    std::uint64_t ranges[2][2];
    unsigned nranges = segmentRanges(ring_, seg, ranges);

    // Reconcilable replicas only: a crashed or Dead copy can
    // neither answer digests nor take pushes. An incomplete
    // segment is still reconciled among the survivors, but it
    // keeps its divergence marks and prunes nothing -- the missing
    // replica may hold older state that only its tombstones can
    // kill, and only a sweep that sees the FULL set (after
    // rebuildNode) may declare the segment clean.
    NodeId rec[maxReplication];
    unsigned nrec = 0;
    for (unsigned i = 0; i < count; ++i) {
        MemberState ms = members_[own[i]].state;
        if (!members_[own[i]].crashed &&
            (ms == MemberState::Live ||
             ms == MemberState::Suspect ||
             ms == MemberState::Joining))
            rec[nrec++] = own[i];
    }
    bool complete = nrec == count;
    if (nrec >= 2) {
        for (unsigned r = 0; r < nranges; ++r)
            sweepRange(state, rec, nrec, ranges[r][0],
                       ranges[r][1], complete);
    }
    if (!complete)
        return;

    // The full segment was compared (and any repairs are in
    // flight): keys here are no longer unaccountedly divergent. A
    // repair push that FAILS re-marks its key below.
    if (!divergent_.empty()) {
        for (auto it = divergent_.begin();
             it != divergent_.end();) {
            std::uint64_t h = mix64(*it);
            bool in_seg = false;
            for (unsigned r = 0; r < nranges; ++r)
                in_seg = in_seg || (h >= ranges[r][0] &&
                                    h <= ranges[r][1]);
            it = in_seg ? divergent_.erase(it) : std::next(it);
        }
    }
}

void
KvRouter::sweepRange(std::shared_ptr<SweepState> state,
                     const NodeId *own, unsigned count,
                     std::uint64_t lo, std::uint64_t hi,
                     bool may_prune)
{
    if (lo > hi)
        return;
    // The cheap pass: identical content folds to identical digests,
    // and consistent ranges (the overwhelming majority) cost no
    // enumeration and no flash I/O at all.
    std::uint64_t first = shards_[own[0]]->rangeDigest(lo, hi);
    bool mismatch = false;
    for (unsigned i = 1; i < count && !mismatch; ++i)
        mismatch = shards_[own[i]]->rangeDigest(lo, hi) != first;
    if (!mismatch) {
        // Digest-identical replicas hold identical tombstones, so
        // dropping the settled ones on every replica at once keeps
        // the digests equal and the repair index bounded. (Only
        // when every configured replica took part: see
        // sweepSegment.)
        if (may_prune) {
            for (unsigned i = 0; i < count; ++i)
                shards_[own[i]]->pruneTombstones(
                    lo, hi, state->pruneBelow);
        }
        return;
    }
    // Reconcile ALL replicas at once, not pairwise against the
    // primary: with R >= 3 the primary can itself be one of the
    // stale copies, and two equally-stale replicas must still be
    // pulled up to the newest-stamped state wherever it lives.
    struct Side
    {
        std::uint64_t stamp = 0;
        bool live = false;
        bool present = false;
        bool corrupt = false;
    };
    struct MergedKey
    {
        Key key = 0;
        Side sides[maxReplication];
    };
    std::map<std::uint64_t, MergedKey> merged;
    for (unsigned i = 0; i < count; ++i) {
        std::vector<KvShard::RangeEntry> entries;
        shards_[own[i]]->rangeEntries(lo, hi, entries);
        for (const auto &e : entries) {
            MergedKey &m = merged[mix64(e.key)];
            m.key = e.key;
            m.sides[i] = Side{e.stamp, e.live, true, e.corrupt};
        }
    }
    for (auto &[hash, m] : merged) {
        (void)hash;
        // Newest-stamped INTACT side wins; absent counts as stamp
        // 0. A corrupt side is never the source -- its stamp says
        // what it USED to hold, but the bytes are gone, so pushing
        // from it would spread garbage (and its repairPut source
        // read would fail anyway).
        unsigned newest = count;
        for (unsigned i = 0; i < count; ++i) {
            if (m.sides[i].corrupt)
                continue;
            if (newest == count ||
                m.sides[i].stamp > m.sides[newest].stamp)
                newest = i;
        }
        if (newest == count || m.sides[newest].stamp == 0)
            continue; // every copy corrupt (or absent): unhealable
        for (unsigned i = 0; i < count; ++i) {
            if (i == newest)
                continue;
            // A corrupt replica NEVER "agrees", whatever its stamp:
            // equal-stamp rot is exactly the case the corrupt flag
            // exists to repair.
            if (m.sides[i].present && !m.sides[i].corrupt &&
                m.sides[i].stamp == m.sides[newest].stamp &&
                m.sides[i].live == m.sides[newest].live)
                continue; // this replica already agrees
            repairKey(state, m.key, own[newest], own[i],
                      m.sides[newest].stamp, m.sides[newest].live);
        }
    }
}

void
KvRouter::repairKey(std::shared_ptr<SweepState> state, Key key,
                    NodeId from, NodeId to, std::uint64_t stamp,
                    bool live)
{
    ++state->outstanding;
    bool moved = state->rebalance;
    auto finish = [this, state, key, moved,
                   alive = alive_](KvStatus st) {
        if (!*alive)
            return;
        if (st != KvStatus::Ok && st != KvStatus::NotFound)
            // Push failed (unreadable source, shed append, ...):
            // still divergent. NotFound is repairDel finding the key
            // already absent -- the tombstone applied, so that copy
            // DID converge.
            divergent_.insert(key);
        else if (moved)
            movedKeys_.inc(); // rebalance copy (handoff traffic)
        else
            repairedKeys_.inc(); // reconciled (applied or caught up)
        --state->outstanding;
        if (state->stalled &&
            state->outstanding < params_.repairChunk) {
            state->stalled = false;
            sweepChunk(state);
            return;
        }
        sweepFinish(state);
    };
    if (!live) {
        shards_[to]->repairDel(key, stamp, std::move(finish));
        return;
    }
    // The source read rides Background with the push: recovery
    // traffic must never suspend a serving program or queue a
    // serving read behind it.
    shards_[from]->get(
        key,
        [this, key, to, stamp, alive = alive_,
         finish = std::move(finish)](PageBuffer v, KvStatus st,
                                     std::uint64_t) mutable {
        if (!*alive)
            return;
        if (st != KvStatus::Ok) {
            // Source read failed; leave the key for the next sweep.
            finish(KvStatus::Error);
            return;
        }
        shards_[to]->repairPut(key, std::move(v), stamp,
                               std::move(finish));
    },
        flash::Priority::Background);
}

void
KvRouter::finishGet(PendingOp fin)
{
    sim::Tick now = sim_.now();
    KvCache *cache = cacheFor(fin.origin);
    if (fin.status == KvStatus::Ok && fin.cachedVersion != 0 &&
        fin.version == fin.cachedVersion) {
        // "Not modified": the replica confirmed our cached copy.
        if (cache) {
            if (const KvCache::Entry *e = cache->lookup(fin.key)) {
                cacheServed_.inc();
                sim_.tracer().mark(fin.routeSpan, "cache.hit", now);
                sim_.tracer().endSpan(fin.routeSpan, now);
                fin.getDone(e->value, KvStatus::Ok);
                return;
            }
        }
        // Evicted while the validation was in flight (rare): fall
        // back to a plain fetch, which cannot loop -- the entry is
        // gone, so the retry goes out unconditional. The re-issue
        // opens a fresh route span under the original parent.
        sim_.tracer().endSpan(fin.routeSpan, now);
        get(fin.origin, fin.key, std::move(fin.getDone), fin.trace);
        return;
    }
    if (fin.status == KvStatus::Ok) {
        if (fin.cachedVersion != 0) {
            cacheStale_.inc(); // self-detected: fresh value came back
            sim_.tracer().mark(fin.routeSpan, "cache.stale", now);
        }
        // Steered / failed-over results carry another replica's
        // version space, and results from before a ring flip may
        // belong to an owner that no longer serves the key: never
        // let either into the cache (see get()).
        if (cache && !fin.steered && fin.epoch == ringEpoch_)
            cache->fill(fin.key, fin.version, fin.value);
    } else if (fin.status == KvStatus::NotFound && cache) {
        cache->invalidate(fin.key);
    }
    sim_.tracer().endSpan(fin.routeSpan, now);
    fin.getDone(std::move(fin.value), fin.status);
}

} // namespace kv
} // namespace bluedbm
