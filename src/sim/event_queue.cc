#include "sim/event_queue.hh"

// lint: hot-path

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace sim {

std::uint32_t
EventQueue::acquireSlot()
{
    if (!freeSlots_.empty()) {
        std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        return slot;
    }
    if (fns_.size() >= 0xffffffffu)
        panic("event pool exhausted (2^32 simultaneous events)");
    fns_.emplace_back();
    meta_.emplace_back();
    return static_cast<std::uint32_t>(fns_.size() - 1);
}

void
EventQueue::retireSlot(std::uint32_t slot)
{
    fns_[slot].fn.reset();
    SlotMeta &m = meta_[slot];
    m.activeSeq = noSeq;
    if (++m.gen == 0) {
        // Generation space exhausted: retire the slot permanently so
        // a stale EventId can never alias a future occupant (costs
        // one 64-byte slot per 2^32 events of churn). Handles stay
        // unique for the queue's lifetime, like the legacy 64-bit
        // ids. gen 0 is never issued, so old handles stay dead.
        ++retiredSlots_;
        return;
    }
    freeSlots_.push_back(slot);
}

Tick
EventQueue::rungCurStart(const Rung &r) const
{
    // start + cur*width can exceed the tick range once the rung is
    // consumed near its end; saturate so comparisons stay sane.
    unsigned __int128 s = static_cast<unsigned __int128>(r.start) +
        static_cast<unsigned __int128>(r.width) * r.cur;
    if (s > maxTick)
        return maxTick;
    return static_cast<Tick>(s);
}

void
EventQueue::insertBottom(const Rec &rec)
{
    // Fast path: the new record fires before everything pending in
    // the bottom (short-delay schedules), so it belongs at the
    // consumption end.
    if (bottom_.empty() || before(rec, bottom_.back())) {
        bottom_.push_back(rec);
        return;
    }
    auto desc = [](const Rec &a, const Rec &b) { return before(b, a); };
    auto it = std::upper_bound(bottom_.begin(), bottom_.end(), rec, desc);
    bottom_.insert(it, rec);
}

void
EventQueue::insertRecord(const Rec &rec)
{
    if (rec.when == curTick_) {
        // Same-tick FIFO: append order is firing order, no sort.
        nowQ_.push_back(rec);
        return;
    }
    if (rec.when >= topStart_) {
        top_.push_back(rec);
        return;
    }
    // Walk coarse to fine; each rung's unconsumed region sits above
    // the one below it, so the first region containing the tick is
    // the right home.
    for (std::size_t r = 0; r < nRungs_; ++r) {
        Rung &rg = rungs_[r];
        if (rec.when < rungCurStart(rg))
            continue;
        std::size_t idx =
            static_cast<std::size_t>((rec.when - rg.start) / rg.width);
        // A rung spans at least its parent bucket but may have been
        // sized from the actual record min/max; late arrivals between
        // that max and the parent boundary clamp into the last bucket
        // (safe: ticks there are >= everything below, and the bucket
        // is sorted before consumption). If the rung is already fully
        // consumed, the record instead sinks into whatever finer
        // structure now serves that range.
        if (idx >= kBuckets) {
            if (rg.cur >= kBuckets)
                continue;
            idx = kBuckets - 1;
        }
        rg.buckets[idx].push_back(rec);
        ++rg.count;
        return;
    }
    // Below every rung: the tick range was already sorted into the
    // bottom, so merge into it.
    insertBottom(rec);
}

void
EventQueue::pruneStale(std::vector<Rec> &v)
{
    std::size_t out = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (liveRecord(v[i]))
            v[out++] = v[i];
    }
    v.resize(out);
}

void
EventQueue::spreadTop()
{
    Tick mn = top_[0].when;
    Tick mx = top_[0].when;
    for (const Rec &rec : top_) {
        mn = std::min(mn, rec.when);
        mx = std::max(mx, rec.when);
    }
    Rung &r = rungs_[0];
    r.start = mn;
    r.width = (mx - mn) / kBuckets + 1;
    r.cur = 0;
    r.count = top_.size();
    for (const Rec &rec : top_) {
        std::size_t idx =
            static_cast<std::size_t>((rec.when - mn) / r.width);
        r.buckets[idx].push_back(rec);
    }
    top_.clear();
    nRungs_ = 1;
    topStart_ = mx < maxTick ? mx + 1 : maxTick;
}

bool
EventQueue::refillBottom()
{
    for (;;) {
        if (nRungs_ == 0) {
            // Cancelled far-future guards are common; prune before
            // sizing the rung so they can't stretch its span.
            pruneStale(top_);
            if (top_.empty()) {
                // Fully drained: open a fresh epoch so future
                // schedules take the O(1) top path again instead of
                // merging one by one into the bottom.
                topStart_ = curTick_;
                return false;
            }
            spreadTop();
        }
        Rung &r = rungs_[nRungs_ - 1];
        if (r.count == 0) {
            r.cur = 0;
            --nRungs_;
            continue;
        }
        while (r.buckets[r.cur].empty())
            ++r.cur;
        std::vector<Rec> &b = r.buckets[r.cur];
        ++r.cur;
        r.count -= b.size();
        pruneStale(b);
        if (b.empty())
            continue;
        Tick mn = b[0].when;
        Tick mx = b[0].when;
        for (const Rec &rec : b) {
            mn = std::min(mn, rec.when);
            mx = std::max(mx, rec.when);
        }
        if (b.size() <= kBottomLimit || mn == mx ||
            nRungs_ == kMaxRungs) {
            // Small (or single-tick) bucket: sort it descending and
            // serve it as the new bottom. swap() recycles vector
            // capacity both ways, keeping the hot path allocation-free
            // once high-water marks are reached.
            bottom_.swap(b);
            std::sort(bottom_.begin(), bottom_.end(),
                      [](const Rec &x, const Rec &y) {
                          return before(y, x);
                      });
            return true;
        }
        // Large multi-tick bucket: spread into a finer rung (span
        // shrinks by >= kBuckets per level, so depth is bounded).
        Rung &c = rungs_[nRungs_];
        c.start = mn;
        c.width = (mx - mn) / kBuckets + 1;
        c.cur = 0;
        c.count = b.size();
        for (const Rec &rec : b) {
            std::size_t idx =
                static_cast<std::size_t>((rec.when - mn) / c.width);
            c.buckets[idx].push_back(rec);
        }
        b.clear();
        ++nRungs_;
    }
}

bool
EventQueue::prepareHead()
{
    for (;;) {
        while (nowHead_ < nowQ_.size() && !liveRecord(nowQ_[nowHead_]))
            ++nowHead_;
        if (nowHead_ >= nowQ_.size() && !nowQ_.empty()) {
            nowQ_.clear();
            nowHead_ = 0;
        }
        while (!bottom_.empty() && !liveRecord(bottom_.back()))
            bottom_.pop_back();
        bool haveNow = nowHead_ < nowQ_.size();
        bool haveBottom = !bottom_.empty();
        if (haveNow && haveBottom) {
            headInNow_ = before(nowQ_[nowHead_], bottom_.back());
            return true;
        }
        if (haveNow || haveBottom) {
            headInNow_ = haveNow;
            return true;
        }
        if (!refillBottom())
            return false;
    }
}

std::uint32_t
EventQueue::takeSeq()
{
    std::uint32_t seq = nextSeq_++;
    if (seq == noSeq) // sentinel is never a live seq
        seq = nextSeq_++;
    return seq;
}

EventId
EventQueue::arm(Tick when, std::uint32_t seq, Callback fn)
{
    if (!fn)
        panic("scheduling an empty callback");
    std::uint32_t slot = acquireSlot();
    fns_[slot].fn = std::move(fn);
    meta_[slot].activeSeq = seq;
    meta_[slot].when = when;
    ++liveEvents_;
    return (static_cast<EventId>(slot) << 32) | meta_[slot].gen;
}

EventId
EventQueue::schedule(Tick when, Callback fn)
{
    if (when < curTick_)
        panic("scheduling event in the past: when=%llu now=%llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));
    std::uint32_t seq = takeSeq();
    EventId id = arm(when, seq, std::move(fn));
    insertRecord(Rec{when, seq, eventIdSlot(id)});
    return id;
}

std::uint32_t
EventQueue::reserveSeq(Tick when)
{
    if (when < curTick_)
        panic("reserving a seq in the past: when=%llu now=%llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));
    reservedMax_ = std::max(reservedMax_, when);
    return takeSeq();
}

EventId
EventQueue::scheduleReserved(Tick when, std::uint32_t seq, Callback fn)
{
    if (reached(when, seq))
        panic("scheduling a reserved seq already passed: when=%llu "
              "now=%llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));
    EventId id = arm(when, seq, std::move(fn));
    Rec rec{when, seq, eventIdSlot(id)};
    // A seq reserved for the current tick predates everything in the
    // same-tick FIFO (those were scheduled once the clock got here),
    // so appending would break the FIFO's order; merge it into the
    // sorted bottom, which holds the lowest tick range.
    if (when == curTick_)
        insertBottom(rec);
    else
        insertRecord(rec);
    return id;
}

bool
EventQueue::cancel(EventId id)
{
    if (id == invalidEventId)
        return false;
    std::uint32_t slot = eventIdSlot(id);
    std::uint32_t gen = eventIdGeneration(id);
    if (slot >= meta_.size() || meta_[slot].gen != gen)
        return false; // fired, cancelled, or slot reused since
    // The seq/generation bump invalidates the ladder record lazily;
    // the slot is free for reuse immediately.
    retireSlot(slot);
    --liveEvents_;
    return true;
}

EventId
EventQueue::debugExhaustGeneration(EventId id)
{
    std::uint32_t slot = eventIdSlot(id);
    std::uint32_t gen = eventIdGeneration(id);
    if (slot >= meta_.size() || meta_[slot].gen != gen ||
        meta_[slot].activeSeq == noSeq)
        panic("debugExhaustGeneration: handle is not a live event");
    meta_[slot].gen = 0xffffffffu;
    return (static_cast<EventId>(slot) << 32) | 0xffffffffu;
}

bool
EventQueue::step()
{
    if (!prepareHead())
        return false;
    Rec rec;
    if (headInNow_) {
        rec = nowQ_[nowHead_++];
        if (nowHead_ == nowQ_.size()) {
            nowQ_.clear();
            nowHead_ = 0;
        }
    } else {
        rec = bottom_.back();
        bottom_.pop_back();
    }
    curTick_ = rec.when;
    runningSeq_ = rec.seq;
    // Move the callback out of its slot and recycle the slot *before*
    // running: the callback may freely schedule into or cancel from
    // the queue (including reusing this very slot).
    Callback fn = std::move(fns_[rec.slot].fn);
    retireSlot(rec.slot);
    --liveEvents_;
    ++executed_;
    fn();
    return true;
}

Tick
EventQueue::runUntil(Tick limit)
{
    if (limit < curTick_)
        return curTick_; // never move time backwards
    for (;;) {
        if (!prepareHead()) {
            // Drained. Reservations never scheduled stand for events
            // that would have run up to their tick, so the clock
            // ends where the last of them would have.
            if (reservedMax_ > curTick_)
                curTick_ = std::min(reservedMax_, limit);
            break;
        }
        Tick when = headInNow_ ? nowQ_[nowHead_].when
                               : bottom_.back().when;
        if (when > limit) {
            curTick_ = limit;
            break;
        }
        step();
    }
    // Between runs, every seq issued so far at or before the final
    // tick counts as reached.
    runningSeq_ = nextSeq_ - 1;
    return curTick_;
}

} // namespace sim
} // namespace bluedbm
