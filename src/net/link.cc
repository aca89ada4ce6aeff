#include "net/link.hh"

// lint: hot-path

#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace net {

Lane::Lane(sim::Simulator &sim, const LaneParams &params)
    : sim_(sim), params_(params),
      wire_(params.physBytesPerSec, params.hopLatency),
      credits_(params.bufferBytes)
{
}

void
Lane::send(Message msg, HopHook on_start)
{
    if (msg.bytes > params_.bufferBytes)
        sim::fatal("message of %u bytes exceeds lane buffer %u",
                   msg.bytes, params_.bufferBytes);
    queue_.push_back(Pending{std::move(msg), std::move(on_start)});
    pump();
}

void
Lane::releaseCredits(std::uint32_t bytes)
{
    // The token travels back across the link before the sender can
    // use it; the ledger holds it until then.
    sim::Tick when = sim_.now() + params_.hopLatency;
    std::uint32_t seq = sim_.reserveSeq(when);
    if (ledgerSize_ == ledger_.size()) {
        // Full: unroll the ring oldest-first into twice the room.
        std::vector<CreditReturn> grown(
            ledger_.empty() ? 8 : 2 * ledger_.size());
        for (std::size_t i = 0; i < ledgerSize_; ++i)
            grown[i] = ledgerAt(i);
        ledger_.swap(grown);
        ledgerHead_ = 0;
    }
    ledger_[(ledgerHead_ + ledgerSize_++) & (ledger_.size() - 1)] =
        CreditReturn{when, seq, bytes};
    armWake();
}

void
Lane::applyCredits()
{
    while (ledgerSize_ > 0) {
        const CreditReturn &r = ledger_[ledgerHead_];
        if (!sim_.reached(r.when, r.seq))
            return;
        credits_ += r.bytes;
        if (credits_ > params_.bufferBytes)
            sim::panic("lane credit overflow");
        ledgerHead_ = (ledgerHead_ + 1) & (ledger_.size() - 1);
        --ledgerSize_;
    }
}

void
Lane::pump()
{
    applyCredits();
    while (!queue_.empty() && credits_ >= queue_.front().msg.bytes) {
        Pending pending = std::move(queue_.front());
        queue_.pop_front();
        Message msg = std::move(pending.msg);
        credits_ -= msg.bytes;
        if (pending.onStart)
            pending.onStart();

        // Cut-through: serialization begins when the *head* reached
        // this switch (possibly before this forwarding event, which
        // runs at tail arrival), subject to the wire being free.
        std::uint64_t wb = wireBytes(msg.bytes);
        sim::Tick tail_arrival = wire_.occupy(msg.headArrival, wb);
        // The tail itself only got here "now" and still needs the
        // hop to cross.
        sim::Tick min_tail = sim_.now() + params_.hopLatency;
        if (tail_arrival < min_tail)
            tail_arrival = min_tail;
        sim::Tick serialization =
            sim::transferTicks(wb, params_.physBytesPerSec);
        msg.headArrival = tail_arrival - serialization;

        auto deliverEvent = [this, m = std::move(msg)]() mutable {
            deliveredBytes_ += m.bytes;
            ++deliveredMsgs_;
            if (!deliver_)
                sim::panic("lane delivers with no receiver");
            deliver_(std::move(m));
        };
        // The per-hop forwarding event is the hottest capture in the
        // simulator; it must ride the event slot, not the heap.
        static_assert(sim::EventQueue::Callback::storedInline<
                          decltype(deliverEvent)>(),
                      "message delivery capture must fit the inline "
                      "event buffer");
        sim_.scheduleAt(tail_arrival, std::move(deliverEvent));
    }
    armWake();
}

void
Lane::armWake()
{
    // pump() leaves a message queued only when it waits for credits.
    if (wakeArmed_ || queue_.empty() || ledgerSize_ == 0)
        return;
    // Wake where the oldest return lands: the very (tick, seq) its
    // credit-return event would have had.
    const CreditReturn &r = ledger_[ledgerHead_];
    wakeArmed_ = true;
    sim_.scheduleReserved(r.when, r.seq, [this]() {
        wakeArmed_ = false;
        pump();
    });
}

} // namespace net
} // namespace bluedbm
