#include "kv/kv_shard.hh"

#include <cstring>
#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace kv {

using flash::PageBuffer;

namespace {

/** Registry cell labeled with this shard's instance serial. */
sim::Counter &
cell(sim::Simulator &sim, unsigned inst, const char *name)
{
    return sim.metrics().counter(name,
                                 {{"inst", std::to_string(inst)}});
}

} // namespace

KvShard::KvShard(sim::Simulator &sim, fs::LogFs &fs,
                 const std::string &log_name)
    : sim_(sim), fs_(fs),
      inst_(sim.metrics().nextInstance("shard")),
      gets_(cell(sim, inst_, "kv.shard.gets")),
      puts_(cell(sim, inst_, "kv.shard.puts")),
      deletes_(cell(sim, inst_, "kv.shard.deletes")),
      misses_(cell(sim, inst_, "kv.shard.misses")),
      memtableHits_(cell(sim, inst_, "kv.shard.memtable_hits")),
      validatedGets_(cell(sim, inst_, "kv.shard.validated_gets")),
      coalescedGets_(cell(sim, inst_, "kv.shard.coalesced_gets")),
      failedPuts_(cell(sim, inst_, "kv.shard.failed_puts")),
      repairsApplied_(cell(sim, inst_, "kv.shard.repairs_applied")),
      pressuredPuts_(cell(sim, inst_, "kv.shard.pressured_puts")),
      corruptKeys_(cell(sim, inst_, "kv.shard.corrupt_keys"))
{
    // Unlike most models a shard may die before the Simulator (see
    // ~KvShard), so its gauges check the liveness flag.
    sim.metrics().registerGauge(
        "kv.shard.live_bytes", {{"inst", std::to_string(inst_)}},
        [this, alive = alive_]() {
        return *alive ? static_cast<double>(liveBytes_) : 0.0;
    });
    sim.metrics().registerGauge(
        "kv.shard.log_bytes", {{"inst", std::to_string(inst_)}},
        [this, alive = alive_]() {
        return *alive ? static_cast<double>(logBytes_) : 0.0;
    });
    for (unsigned s = 0; s < logStripes; ++s) {
        logNames_[s] = log_name + "." + std::to_string(s);
        if (!fs_.create(logNames_[s]))
            sim::fatal("shard log '%s' already exists",
                       logNames_[s].c_str());
    }
}

KvShard::~KvShard()
{
    *alive_ = false;
}

KvShard::KeyRecord &
KvShard::recordFor(Key key)
{
    auto [it, fresh] = records_.try_emplace(key);
    if (fresh)
        byHash_.emplace(mix64(key), &*it);
    return it->second;
}

void
KvShard::retire(Records::iterator it)
{
    const KeyRecord &r = it->second;
    if (r.cur.presence != Presence::Absent || r.inflight != 0)
        return;
    byHash_.erase(mix64(it->first));
    records_.erase(it);
}

bool
KvShard::covers(Key key, std::uint64_t stamp) const
{
    auto it = records_.find(key);
    return it != records_.end() &&
           it->second.cur.presence != Presence::Absent &&
           !it->second.corrupt && it->second.cur.stamp >= stamp;
}

void
KvShard::ackLater(AckDone done, KvStatus st)
{
    sim_.scheduleAfter(0, [alive = alive_, st,
                           done = std::move(done)]() {
        if (!*alive)
            return;
        done(st);
    });
}

void
KvShard::put(Key key, PageBuffer value, std::uint64_t stamp,
             AckDone done, flash::Priority pri, std::uint64_t trace)
{
    puts_.inc();
    // Capacity red line: below the file system's reserved free-block
    // floor, shed the put with a retryable status instead of
    // appending. Consuming the last free blocks would leave the
    // cleaner nowhere to relocate live pages and wedge the card;
    // reads (which consume no capacity) are never shed. Background
    // (maintenance-class) appends are admitted all the way down to
    // the cleaner's own relocation reserve: repair pushes are few
    // and bounded (KvRouter throttles them at repairChunk in
    // flight), and shedding them at the ordinary red line would
    // make pressure self-sustaining -- anti-entropy could never
    // converge on a card the cleaner holds near the line, which is
    // exactly when replicas have diverged the most.
    bool shed = pri == flash::Priority::Background
                    ? fs_.exhausted()
                    : fs_.underPressure();
    if (shed) {
        pressuredPuts_.inc();
        ackLater(std::move(done), KvStatus::Pressure);
        return;
    }
    auto len = static_cast<std::uint32_t>(value.size());

    // Log record: [key][len][value bytes], appended at the frontier.
    std::vector<std::uint8_t> record(recordHeaderBytes + value.size());
    std::memcpy(record.data(), &key, sizeof(key));
    std::memcpy(record.data() + sizeof(key), &len, sizeof(len));
    std::memcpy(record.data() + recordHeaderBytes, value.data(),
                value.size());
    const std::string &log = fileFor(key);
    std::uint64_t value_offset = fs_.size(log) + recordHeaderBytes;

    KeyRecord &r = recordFor(key);
    // With no append in flight, the current state (live, tombstone
    // or absent) IS the durable state: snapshot it as the rollback
    // target for the in-flight chain this put starts.
    if (r.inflight++ == 0)
        r.snap = r.cur;
    if (r.cur.presence == Presence::Live)
        liveBytes_ -= r.cur.valueLen; // overwrite: old version is dead
    // Shard-global version: a delete + re-put must never collide
    // with a still-in-flight append of the key's previous life.
    Slot mine{value_offset, ++nextVersion_, stamp, len,
              Presence::Live};
    r.cur = mine;
    r.corrupt = false;
    liveBytes_ += len;
    logBytes_ += record.size();

    // Reads must see this version immediately (read-your-writes):
    // park it in the memtable until the append is durable.
    r.memtable = std::move(value);

    fs_.append(log, std::move(record),
               [this, alive = alive_, key, mine,
                done = std::move(done)](bool ok) {
        if (!*alive)
            return; // shard (and its owner) died mid-append
        // The in-flight count keeps the record alive until here.
        auto it = records_.find(key);
        KeyRecord &rec = it->second;
        bool current = rec.cur.presence == Presence::Live &&
                       rec.cur.version == mine.version;
        --rec.inflight;
        if (!ok) {
            // The record never became durable: its range is garbage
            // forever (log offsets are never reused). If no newer
            // operation superseded it, roll the key back to its last
            // durable state so a later get can never serve
            // never-written flash bytes as Ok; the repair index
            // follows, so replica digests reflect the rollback.
            failedPuts_.inc();
            logBytes_ -= mine.valueLen + recordHeaderBytes;
            markDead(key, mine);
            if (current) {
                rec.memtable.reset();
                liveBytes_ -= rec.cur.valueLen;
                rec.cur = rec.snap;
                if (rec.cur.presence == Presence::Live)
                    liveBytes_ += rec.cur.valueLen;
            }
            retire(it);
            done(KvStatus::Error);
            return;
        }
        if (mine.version > rec.snap.version) {
            // Durable and newer than the rollback target: nothing
            // can roll back to the target any more, so its record
            // is dead, and this one takes its place. Appends to one
            // log complete in issue order, so this is the newest
            // durable state.
            markDead(key, rec.snap);
            rec.snap = mine;
        } else {
            // A delete superseded this append while it was in
            // flight: dead on arrival.
            markDead(key, mine);
        }
        if (current)
            rec.memtable.reset(); // no newer in-flight version
        retire(it);
        done(KvStatus::Ok);
    },
               pri, trace);
}

void
KvShard::get(Key key, GetDone done, flash::Priority pri,
             std::uint64_t trace)
{
    getIfNewer(key, 0, std::move(done), pri, trace);
}

void
KvShard::getIfNewer(Key key, std::uint64_t cached_version,
                    GetDone done, flash::Priority pri,
                    std::uint64_t trace)
{
    gets_.inc();
    auto it = records_.find(key);
    if (it == records_.end() ||
        it->second.cur.presence != Presence::Live) {
        misses_.inc();
        sim_.scheduleAfter(0, [alive = alive_,
                               done = std::move(done)]() {
            if (!*alive)
                return;
            done(PageBuffer{}, KvStatus::NotFound, 0);
        });
        return;
    }
    const KeyRecord &r = it->second;
    std::uint64_t version = r.cur.version;
    if (cached_version != 0 && version == cached_version) {
        // The requester's cached copy is current: an O(1) index
        // probe is the whole cost -- no memtable copy, no flash
        // read, no value bytes.
        validatedGets_.inc();
        sim_.tracer().mark(trace, "shard.validated", sim_.now());
        sim_.scheduleAfter(0, [alive = alive_, version,
                               done = std::move(done)]() {
            if (!*alive)
                return;
            done(PageBuffer{}, KvStatus::Ok, version);
        });
        return;
    }
    if (r.memtable) {
        memtableHits_.inc();
        sim_.tracer().mark(trace, "shard.memtable", sim_.now());
        PageBuffer value = *r.memtable; // copy: append still owns it
        sim_.scheduleAfter(0, [alive = alive_, version,
                               value = std::move(value),
                               done = std::move(done)]() mutable {
            if (!*alive)
                return;
            done(std::move(value), KvStatus::Ok, version);
        });
        return;
    }
    // Read coalescing: duplicate gets of the same version join the
    // in-flight flash read instead of issuing their own.
    auto rit = reads_.find(version);
    if (rit != reads_.end()) {
        coalescedGets_.inc();
        sim_.tracer().mark(trace, "shard.coalesced", sim_.now());
        rit->second.waiters.push_back(std::move(done));
        return;
    }
    reads_[version].waiters.push_back(std::move(done));
    fs_.read(fileFor(key), r.cur.valueOffset, r.cur.valueLen,
             [this, alive = alive_, key,
              version](std::vector<std::uint8_t> data, bool ok) {
        if (!*alive)
            return; // shard died mid-read; waiters died with it
        auto git = reads_.find(version);
        std::vector<GetDone> waiters =
            std::move(git->second.waiters);
        reads_.erase(git); // before callbacks: they may re-enter
        KvStatus st = ok ? KvStatus::Ok : KvStatus::Error;
        if (!ok) {
            // The durable copy is gone (uncorrectable after the
            // flash server's retry ladder). If the entry we read
            // is still the live version, flag it in the repair
            // index: digests now differ from the healthy replica
            // even at equal stamps, and an equal-stamp repair push
            // is allowed through to heal it (see KeyRecord).
            auto kit = records_.find(key);
            if (kit != records_.end() &&
                kit->second.cur.presence == Presence::Live &&
                kit->second.cur.version == version &&
                !kit->second.corrupt) {
                kit->second.corrupt = true;
                corruptKeys_.inc();
            }
        }
        for (std::size_t i = 0; i + 1 < waiters.size(); ++i)
            waiters[i](data, st, version); // copy for all but last
        waiters.back()(std::move(data), st, version);
    },
             pri, trace);
}

void
KvShard::del(Key key, std::uint64_t stamp, AckDone done)
{
    deletes_.inc();
    // Record the tombstone even for a miss: a delete that reached
    // only some replicas of a (divergent) key must leave matching
    // repair-index state everywhere it DID arrive, or anti-entropy
    // would re-detect the difference on every sweep.
    KeyRecord &r = recordFor(key);
    KvStatus st = KvStatus::NotFound;
    if (r.cur.presence == Presence::Live) {
        liveBytes_ -= r.cur.valueLen;
        if (r.inflight > 0) {
            // Appends are in flight: the durable record they would
            // replace is dead now, and the rollback target becomes a
            // tombstone at a fresh version, so a pending older append
            // that completes (or fails) after this delete neither
            // reinstates nor rolls back to a resurrected value.
            markDead(key, r.snap);
            r.snap = Slot{0, ++nextVersion_, stamp, 0,
                          Presence::Tombstone};
        } else {
            // Quiescent key: its record is durable and now dead.
            markDead(key, r.cur);
        }
        r.memtable.reset();
        st = KvStatus::Ok;
    }
    r.cur.presence = Presence::Tombstone;
    r.cur.stamp = stamp;
    r.corrupt = false;
    ackLater(std::move(done), st);
}

std::uint64_t
KvShard::rangeDigest(std::uint64_t lo, std::uint64_t hi) const
{
    if (lo > hi)
        return 0;
    std::uint64_t digest = 0;
    for (auto it = byHash_.lower_bound(lo);
         it != byHash_.end() && it->first <= hi; ++it) {
        const KeyRecord &r = it->second->second;
        if (r.cur.presence == Presence::Absent)
            continue;
        // Order-independent fold of (key, stamp, liveness,
        // corruption). Corruption is folded in so a replica whose
        // copy rotted at the SAME stamp as its healthy peer still
        // produces a differing digest -- otherwise the sweep would
        // skip the range and the corrupt key could never heal.
        bool live = r.cur.presence == Presence::Live;
        digest ^= mix64(it->first ^
                        mix64(r.cur.stamp * 0x9e3779b97f4a7c15ull +
                              (live ? 1 : 2) +
                              (r.corrupt ? 2 : 0)));
    }
    return digest;
}

void
KvShard::pruneTombstones(std::uint64_t lo, std::uint64_t hi,
                         std::uint64_t below)
{
    if (lo > hi)
        return;
    auto it = byHash_.lower_bound(lo);
    while (it != byHash_.end() && it->first <= hi) {
        auto &[key, r] = *it->second;
        if (r.cur.presence == Presence::Tombstone &&
            r.cur.stamp < below) {
            r.cur.presence = Presence::Absent;
            if (r.inflight == 0) {
                records_.erase(Key{key}); // copy: key is in the node
                it = byHash_.erase(it);
                continue;
            }
        }
        ++it;
    }
}

void
KvShard::rangeEntries(std::uint64_t lo, std::uint64_t hi,
                      std::vector<RangeEntry> &out) const
{
    if (lo > hi)
        return;
    for (auto it = byHash_.lower_bound(lo);
         it != byHash_.end() && it->first <= hi; ++it) {
        const auto &[key, r] = *it->second;
        if (r.cur.presence != Presence::Absent)
            out.push_back(RangeEntry{
                key, r.cur.stamp, r.cur.presence == Presence::Live,
                r.corrupt});
    }
}

void
KvShard::repairPut(Key key, PageBuffer value, std::uint64_t stamp,
                   AckDone done)
{
    if (covers(key, stamp)) {
        // The shard caught up on its own (a newer write landed, or
        // an earlier repair already applied): nothing to push. A
        // CORRUPT local copy never blocks the push, whatever its
        // stamp: its bytes are gone, so a replica's equal-stamp
        // (or even older) copy is strictly better than garbage.
        ackLater(std::move(done), KvStatus::Ok);
        return;
    }
    // Count only on success: a failed append rolls back and acks
    // Error, and the router re-marks the key for the next sweep.
    // Repair is maintenance: its log append rides the background
    // flash class and never suspends serving programs.
    put(key, std::move(value), stamp,
        [this, done = std::move(done)](KvStatus st) {
        if (st == KvStatus::Ok)
            repairsApplied_.inc();
        done(st);
    },
        flash::Priority::Background);
}

void
KvShard::repairDel(Key key, std::uint64_t stamp, AckDone done)
{
    if (covers(key, stamp)) {
        ackLater(std::move(done), KvStatus::Ok);
        return;
    }
    // del applies the tombstone unconditionally (NotFound just
    // means the key was already absent): always a state change.
    repairsApplied_.inc();
    del(key, stamp, std::move(done));
}

bool
KvShard::keyState(Key key, std::uint64_t *stamp, bool *live,
                  bool *corrupt) const
{
    auto it = records_.find(key);
    if (it == records_.end() ||
        it->second.cur.presence == Presence::Absent)
        return false;
    *stamp = it->second.cur.stamp;
    *live = it->second.cur.presence == Presence::Live;
    if (corrupt != nullptr)
        *corrupt = it->second.corrupt;
    return true;
}

bool
KvShard::contains(Key key) const
{
    auto it = records_.find(key);
    return it != records_.end() &&
           it->second.cur.presence == Presence::Live;
}

std::size_t
KvShard::keyCount() const
{
    std::size_t n = 0;
    for (const auto &[key, r] : records_)
        n += r.cur.presence == Presence::Live;
    return n;
}

std::size_t
KvShard::repairIndexSize() const
{
    std::size_t n = 0;
    for (const auto &[key, r] : records_)
        n += r.cur.presence != Presence::Absent;
    return n;
}

std::size_t
KvShard::corruptKeyCount() const
{
    std::size_t n = 0;
    for (const auto &[key, r] : records_)
        n += r.corrupt;
    return n;
}

void
KvShard::markDead(Key key, const Slot &slot)
{
    if (slot.presence != Presence::Live)
        return;
    const std::uint64_t offset = slot.valueOffset - recordHeaderBytes;
    const std::uint64_t len = slot.valueLen + recordHeaderBytes;
    const std::string &log = fileFor(key);
    const std::uint32_t psz = fs_.pageSize();
    auto &pages = deadBytes_[log];
    std::uint64_t first = offset / psz;
    std::uint64_t last = (offset + len - 1) / psz;
    for (std::uint64_t p = first; p <= last; ++p) {
        std::uint64_t pstart = p * psz;
        std::uint64_t pend = pstart + psz;
        auto lo = offset > pstart ? offset : pstart;
        auto hi = offset + len < pend ? offset + len : pend;
        std::uint32_t &dead = pages[p];
        dead += static_cast<std::uint32_t>(hi - lo);
        if (dead >= psz) {
            // Every byte of the page belongs to dead records: drop
            // its physical backing so the cleaner sees the page as
            // reclaimable. trim() can refuse (page already poisoned
            // or never mapped); the dead-byte entry is retired
            // either way -- its bytes can die only once.
            (void)fs_.trim(log, p);
            pages.erase(p);
        }
    }
}

} // namespace kv
} // namespace bluedbm
