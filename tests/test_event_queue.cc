/**
 * @file
 * Unit tests for the discrete event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace bluedbm;
using sim::EventQueue;
using sim::Tick;

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickRunsInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    std::vector<Tick> fired;
    q.schedule(1, [&] {
        fired.push_back(q.now());
        q.schedule(q.now() + 4, [&] { fired.push_back(q.now()); });
    });
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{1, 5}));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    auto id = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, CancelUnknownIdReturnsFalse)
{
    EventQueue q;
    auto id = q.schedule(1, [] {});
    q.run();
    EXPECT_FALSE(q.cancel(id));       // already fired
    EXPECT_FALSE(q.cancel(987654));   // never existed
    EXPECT_FALSE(q.cancel(sim::invalidEventId));
}

TEST(EventQueue, DoubleCancelIsSafe)
{
    EventQueue q;
    auto id = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    q.run();
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&] { ++count; });
    q.schedule(20, [&] { ++count; });
    q.schedule(30, [&] { ++count; });
    q.runUntil(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.now(), 20u);
    q.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, PendingAndExecutedCounts)
{
    EventQueue q;
    q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.step();
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.executed(), 1u);
    q.run();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StepOnEmptyReturnsFalse)
{
    EventQueue q;
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, CancelAfterFireReturnsFalse)
{
    EventQueue q;
    auto id = q.schedule(10, [] {});
    q.run();
    EXPECT_EQ(q.executed(), 1u);
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id)); // and stays false
}

TEST(EventQueue, GenerationReuseCannotCancelNewerEvent)
{
    EventQueue q;
    bool a_ran = false, b_ran = false;
    auto a = q.schedule(10, [&] { a_ran = true; });
    EXPECT_TRUE(q.cancel(a));

    // The freed slot is reused (LIFO free list) by the next event.
    auto b = q.schedule(20, [&] { b_ran = true; });
    EXPECT_EQ(sim::eventIdSlot(a), sim::eventIdSlot(b));
    EXPECT_NE(sim::eventIdGeneration(a), sim::eventIdGeneration(b));

    // The stale handle must not touch the slot's new occupant.
    EXPECT_FALSE(q.cancel(a));
    q.run();
    EXPECT_FALSE(a_ran);
    EXPECT_TRUE(b_ran);

    // And after B fired, both handles are dead.
    EXPECT_FALSE(q.cancel(a));
    EXPECT_FALSE(q.cancel(b));
}

TEST(EventQueue, SameTickOrderSurvivesCancellations)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<sim::EventId> ids;
    for (int i = 0; i < 20; ++i)
        ids.push_back(q.schedule(5, [&order, i] { order.push_back(i); }));
    // Cancel every third event; the rest must still run in schedule
    // order (slot recycling must not perturb the tie-break).
    for (int i = 0; i < 20; i += 3)
        EXPECT_TRUE(q.cancel(ids[std::size_t(i)]));
    for (int i = 20; i < 25; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    std::vector<int> expect;
    for (int i = 0; i < 25; ++i)
        if (i >= 20 || i % 3 != 0)
            expect.push_back(i);
    EXPECT_EQ(order, expect);
}

TEST(EventQueue, SlotsAreRecycledInSteadyState)
{
    EventQueue q;
    // A self-rescheduling chain keeps exactly one event pending, so
    // the pool must never grow past the initial high-water mark.
    struct Chain
    {
        EventQueue *q;
        int remaining;
        void
        operator()()
        {
            if (remaining > 0)
                q->schedule(q->now() + 1, Chain{q, remaining - 1});
        }
    };
    q.schedule(1, Chain{&q, 9999});
    q.run();
    EXPECT_EQ(q.executed(), 10000u);
    EXPECT_EQ(q.poolSlots(), 1u);
}

namespace {

/** Callable that counts copies and moves of itself. */
struct CopyCounter
{
    int *copies;
    int *moves;
    int *calls;

    CopyCounter(int *cp, int *mv, int *cl)
        : copies(cp), moves(mv), calls(cl)
    {
    }
    CopyCounter(const CopyCounter &o)
        : copies(o.copies), moves(o.moves), calls(o.calls)
    {
        ++*copies;
    }
    CopyCounter(CopyCounter &&o) noexcept
        : copies(o.copies), moves(o.moves), calls(o.calls)
    {
        ++*moves;
    }
    void operator()() { ++*calls; }
};

} // namespace

TEST(EventQueue, CallbacksAreMovedNotCopied)
{
    // Regression for the legacy `Entry e = heap_.top()` copy: from
    // the moment the callable enters schedule(), the queue may move
    // it but must never copy it.
    EventQueue q;
    int copies = 0, moves = 0, calls = 0;
    q.schedule(1, CopyCounter(&copies, &moves, &calls));
    q.schedule(2, CopyCounter(&copies, &moves, &calls));
    q.run();
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(copies, 0);
    EXPECT_GT(moves, 0);
}

TEST(EventQueue, MoveOnlyCallablesAreSupported)
{
    EventQueue q;
    auto payload = std::make_unique<int>(42);
    int got = 0;
    q.schedule(1, [&got, p = std::move(payload)] { got = *p; });
    q.run();
    EXPECT_EQ(got, 42);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.step();
    EXPECT_DEATH(q.schedule(50, [] {}), "past");
}

TEST(EventQueueDeath, SchedulingEmptyCallbackPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.schedule(1, EventQueue::Callback()),
                 "empty callback");
}

TEST(Simulator, ScheduleAfterUsesCurrentTime)
{
    sim::Simulator s;
    std::vector<Tick> at;
    s.scheduleAt(100, [&] {
        s.scheduleAfter(50, [&] { at.push_back(s.now()); });
    });
    s.run();
    EXPECT_EQ(at, (std::vector<Tick>{150}));
}

TEST(Simulator, CancelThroughFacade)
{
    sim::Simulator s;
    bool ran = false;
    auto id = s.scheduleAfter(5, [&] { ran = true; });
    EXPECT_TRUE(s.cancel(id));
    s.run();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(s.idle());
}

// ---------------------------------------------------------------- //
// Ladder-queue edge cases
// ---------------------------------------------------------------- //

TEST(EventQueueLadder, CancelHeavyChurnRecyclesAndKeepsOrder)
{
    EventQueue q;
    // The timeout-guard pattern at scale: waves of far-future guards
    // that are all cancelled before they can fire. Stale ladder
    // records must be pruned lazily and slots recycled immediately.
    std::vector<sim::EventId> guards;
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 100; ++i)
            guards.push_back(
                q.schedule(1000000 + Tick(i) * 1000, [] {}));
        for (auto id : guards)
            EXPECT_TRUE(q.cancel(id));
        guards.clear();
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    // Slots recycle: the pool is bounded by the per-wave maximum.
    EXPECT_LE(q.poolSlots(), 100u);
    // The structure still orders correctly after the churn.
    std::vector<int> order;
    q.schedule(5000, [&] { order.push_back(2); });
    q.schedule(50, [&] { order.push_back(1); });
    q.schedule(50000000, [&] { order.push_back(3); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueLadder, FarFutureTimersCrossEpochs)
{
    EventQueue q;
    // Ticks are picoseconds: spans from sub-ns link events to
    // multi-second timers force top spreads, multi-level rungs and
    // re-spreads as the epochs drain.
    std::vector<Tick> whens;
    for (Tick w = 1; w < Tick(4e15); w = w * 3 + 1)
        whens.push_back(w);
    std::vector<Tick> fired;
    for (Tick w : whens)
        q.schedule(w, [w, &fired] { fired.push_back(w); });
    // Mid-run cross-epoch inserts: each firing schedules a short
    // follow-up that lands far below the remaining timers.
    std::vector<Tick> extra;
    for (Tick w : whens) {
        if (w > 1000)
            q.schedule(w - 1, [&q, &extra] {
                q.schedule(q.now() + 7, [&q, &extra] {
                    extra.push_back(q.now());
                });
            });
    }
    q.run();
    ASSERT_EQ(fired.size(), whens.size());
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(fired, whens);
    // Every follow-up fired at its precise short offset:
    // (w - 1) + 7 for each timer above the threshold.
    std::vector<Tick> expect_extra;
    for (Tick w : whens)
        if (w > 1000)
            expect_extra.push_back(w + 6);
    EXPECT_EQ(extra, expect_extra);
}

TEST(EventQueueLadder, SameTickBurstMidRunKeepsFifo)
{
    EventQueue q;
    std::vector<int> order;
    // First event at tick 100 schedules same-tick follow-ups; a
    // pre-scheduled peer at tick 100 has an earlier sequence number
    // and must fire before them.
    q.schedule(100, [&q, &order] {
        order.push_back(0);
        for (int i = 1; i <= 3; ++i)
            q.schedule(100, [&order, i] { order.push_back(i); });
    });
    q.schedule(100, [&order] { order.push_back(10); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 2, 3}));
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueueLadder, GenerationExhaustionRetiresSlot)
{
    EventQueue q;
    sim::EventId a = q.schedule(10, [] {});
    // Jump the slot to the last usable generation (organically that
    // takes 2^32 fire/cancel cycles on one slot).
    sim::EventId jam = q.debugExhaustGeneration(a);
    std::uint32_t slot = sim::eventIdSlot(jam);
    EXPECT_EQ(sim::eventIdGeneration(jam), 0xffffffffu);
    EXPECT_FALSE(q.cancel(a)); // the pre-jump handle is dead
    EXPECT_TRUE(q.cancel(jam));
    // The generation wrapped: the slot is permanently retired, not
    // recycled, so no future handle can alias it.
    EXPECT_EQ(q.retiredSlots(), 1u);
    EXPECT_FALSE(q.cancel(jam));
    sim::EventId b = q.schedule(20, [] {});
    EXPECT_NE(sim::eventIdSlot(b), slot);
    q.run();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueLadder, GenerationExhaustionByFiringRetiresSlot)
{
    EventQueue q;
    bool ran = false;
    sim::EventId a = q.schedule(10, [&ran] { ran = true; });
    q.debugExhaustGeneration(a);
    q.run();
    EXPECT_TRUE(ran); // firing still works on the last generation
    EXPECT_EQ(q.retiredSlots(), 1u);
}

/**
 * Ordering oracle: drive the ladder queue and an exact reference
 * model (a multiset ordered by (tick, 64-bit schedule sequence) --
 * the order the replaced 4-ary heap produced) through the same
 * seeded schedule/cancel/pop churn, and require identical execution
 * order throughout. This is the determinism contract the fig12/13
 * bit-identity gates rest on.
 */
TEST(EventQueueLadder, MatchesHeapOrderOracleUnderSeededChurn)
{
    EventQueue q;
    std::uint64_t lcg = 0x00c0ffee;
    auto rnd = [&lcg]() {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    };

    struct RefEv
    {
        Tick when;
        std::uint64_t seq;
        int tag;
    };
    auto before = [](const RefEv &a, const RefEv &b) {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    };
    std::multiset<RefEv, decltype(before)> ref(before);
    std::uint64_t refSeq = 0;

    struct Live
    {
        sim::EventId id;
        int tag;
        std::multiset<RefEv, decltype(before)>::iterator it;
    };
    std::vector<Live> live;
    std::vector<int> fired;
    int nextTag = 0;

    auto popBoth = [&]() {
        bool stepped = q.step();
        ASSERT_EQ(stepped, !ref.empty());
        if (!stepped)
            return;
        auto it = ref.begin();
        ASSERT_EQ(q.now(), it->when);
        ASSERT_FALSE(fired.empty());
        ASSERT_EQ(fired.back(), it->tag);
        for (std::size_t k = 0; k < live.size(); ++k) {
            if (live[k].tag == it->tag) {
                live[k] = live.back();
                live.pop_back();
                break;
            }
        }
        ref.erase(it);
    };

    for (int round = 0; round < 30000; ++round) {
        unsigned r = unsigned(rnd() % 100);
        if (r < 50 || live.size() < 4) {
            // Schedule with delays spanning same-tick bursts to
            // epoch-crossing far-future timers.
            std::uint64_t pick = rnd() % 5;
            Tick delay = pick == 0 ? 0
                : pick == 1        ? rnd() % 64
                : pick == 2        ? rnd() % 8192
                : pick == 3        ? rnd() % 1000000
                                   : rnd() % 1000000000000ull;
            Tick when = q.now() + delay;
            int tag = nextTag++;
            sim::EventId id = q.schedule(
                when, [tag, &fired] { fired.push_back(tag); });
            auto it = ref.insert(RefEv{when, refSeq++, tag});
            live.push_back(Live{id, tag, it});
        } else if (r < 72 && !live.empty()) {
            std::size_t k = std::size_t(rnd() % live.size());
            ASSERT_TRUE(q.cancel(live[k].id));
            ref.erase(live[k].it);
            live[k] = live.back();
            live.pop_back();
        } else {
            popBoth();
            if (HasFatalFailure())
                return;
        }
    }
    while (!ref.empty()) {
        popBoth();
        if (HasFatalFailure())
            return;
    }
    EXPECT_FALSE(q.step());
    EXPECT_TRUE(q.empty());
}

namespace {

/**
 * One run of the reserved-seq oracle. Every fired event logs its id
 * and draws its follow-ups from a seeded Rng: plain events, and
 * reservations. A reservation either stays unscheduled, or is paired
 * with a realizer event, scheduled just before the reservation is
 * taken, that schedules it later (at the current tick, or far enough
 * ahead to land in the bottom, a rung or the top). The eager run
 * schedules every reservation as a plain event at reservation time
 * (an unscheduled one as a no-op) and each realizer as a no-op, so
 * both runs consume the same seqs and must fire the same ids in the
 * same order and end at the same clock.
 */
class ReserveRun
{
  public:
    explicit ReserveRun(bool eager) : eager_(eager) {}

    /** Seed the queue with a few roots. */
    void
    start()
    {
        for (int i = 0; i < 8; ++i)
            plain(rng_.below(1000));
    }

    EventQueue q;
    std::vector<std::uint64_t> log;

  private:
    static constexpr std::uint64_t kIds = 40000;

    struct Reservation
    {
        Tick when;
        std::uint32_t seq;
        std::uint64_t id;
    };

    /** A delay spanning same-tick, bottom, rung and top distances. */
    Tick
    delay()
    {
        switch (rng_.below(4)) {
        case 0:
            return 0;
        case 1:
            return rng_.range(1, 50);
        case 2:
            return rng_.range(1000, 100000);
        default:
            return rng_.range(10000000, 50000000);
        }
    }

    void
    fire(std::uint64_t id)
    {
        log.push_back(id);
        if (next_ >= kIds) {
            // Winding down: leave unscheduled reservations past the
            // last event, so the run ends on the clock rule.
            if (rng_.chance(0.05))
                unscheduled(q.now() + delay());
            return;
        }
        for (std::uint64_t k = rng_.below(3); k > 0; --k)
            plain(q.now() + delay());
        if (rng_.chance(0.4))
            reserve();
    }

    void
    plain(Tick when)
    {
        std::uint64_t id = next_++;
        q.schedule(when, [this, id] { fire(id); });
    }

    void
    reserve()
    {
        Tick realize = q.now() + delay();
        Tick when = realize + delay();
        if (rng_.chance(0.25)) {
            unscheduled(when);
            return;
        }
        std::uint64_t id = next_++;
        if (eager_) {
            q.schedule(realize, [] {});
            q.schedule(when, [this, id] { fire(id); });
            return;
        }
        std::size_t slot = held_.size();
        q.schedule(realize, [this, slot] {
            const Reservation &r = held_[slot];
            ASSERT_FALSE(q.reached(r.when, r.seq));
            std::uint64_t rid = r.id;
            q.scheduleReserved(r.when, r.seq, [this, rid] { fire(rid); });
        });
        held_.push_back(Reservation{when, q.reserveSeq(when), id});
    }

    /** A reservation never scheduled: only the clock rule stands
     * for it. */
    void
    unscheduled(Tick when)
    {
        if (eager_)
            q.schedule(when, [] {});
        else
            q.reserveSeq(when);
    }

    bool eager_;
    sim::Rng rng_{16};
    std::uint64_t next_ = 0;
    std::vector<Reservation> held_;
};

} // namespace

TEST(EventQueueReserve, MatchesEagerScheduleOrder)
{
    ReserveRun eager(true), reserved(false);
    eager.start();
    reserved.start();
    eager.q.run();
    reserved.q.run();
    ASSERT_GT(eager.log.size(), 20000u);
    EXPECT_EQ(reserved.log, eager.log);
    // Unscheduled reservations end the run where their events would
    // have fired.
    EXPECT_EQ(reserved.q.now(), eager.q.now());
    EXPECT_LT(reserved.q.executed(), eager.q.executed());
}

TEST(EventQueueReserve, SlicedRunsMatchEagerClockAtEveryLimit)
{
    // runUntil in slices narrower than the far delays: limits fall
    // below, at and above pending reservations, and each slice must
    // end at the eager run's clock.
    ReserveRun eager(true), reserved(false);
    eager.start();
    reserved.start();
    const Tick slice = 7000001;
    std::vector<Tick> eagerNow, reservedNow;
    for (Tick limit = slice; !eager.q.empty(); limit += slice) {
        eagerNow.push_back(eager.q.runUntil(limit));
        reservedNow.push_back(reserved.q.runUntil(limit));
    }
    reservedNow.push_back(reserved.q.run());
    eagerNow.push_back(eager.q.run());
    EXPECT_EQ(reserved.log, eager.log);
    EXPECT_EQ(reservedNow, eagerNow);
}

TEST(EventQueueReserve, DrainMovesClockToLatestReservationCappedAtLimit)
{
    // One event at 100 and an unscheduled reservation at 300.
    auto build = [](EventQueue &q) {
        q.schedule(100, [] {});
        return q.reserveSeq(300);
    };
    {
        EventQueue q;
        build(q);
        EXPECT_EQ(q.run(), 300u);
        EXPECT_EQ(q.executed(), 1u);
    }
    for (Tick limit : {Tick(200), Tick(300), Tick(1000)}) {
        EventQueue q;
        std::uint32_t seq = build(q);
        EXPECT_EQ(q.runUntil(limit), std::min(limit, Tick(300)))
            << "limit " << limit;
        // Between runs the reservation counts as reached once the
        // clock has got to it.
        EXPECT_EQ(q.reached(300, seq), limit >= 300) << "limit " << limit;
    }
    {
        // A reservation behind the clock does not move it.
        EventQueue q;
        q.reserveSeq(50);
        q.schedule(100, [] {});
        EXPECT_EQ(q.run(), 100u);
    }
}

TEST(EventQueueReserve, SameTickReservationFiresBeforeYoungerSameTickEvents)
{
    // Reserved at tick 10 before the clock got there, scheduled at
    // tick 10 after younger same-tick events were queued: it still
    // fires first among them, in its reserved place.
    EventQueue q;
    std::vector<int> order;
    std::uint32_t seq = 0;
    q.schedule(10, [&] {
        order.push_back(0);
        q.schedule(10, [&] { order.push_back(3); });
        q.schedule(10, [&] { order.push_back(4); });
        q.scheduleReserved(10, seq, [&] {
            EXPECT_EQ(q.runningSeq(), seq);
            order.push_back(2);
        });
    });
    seq = q.reserveSeq(10);
    q.schedule(10, [&] { order.push_back(1); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1, 3, 4}));
}

TEST(EventQueueReserveDeath, SchedulingAReachedReservationPanics)
{
    EventQueue q;
    std::uint32_t seq = q.reserveSeq(5);
    q.schedule(10, [] {});
    q.run();
    EXPECT_DEATH(q.scheduleReserved(5, seq, [] {}), "already passed");
}
