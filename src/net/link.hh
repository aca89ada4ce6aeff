/**
 * @file
 * Serial link lanes with token-based flow control (paper section
 * 3.2.2).
 *
 * A Lane is one direction of a serial cable: a latency-rate wire plus
 * a receiver buffer whose occupancy is governed by byte credits. The
 * sender may only place a message on the wire when the receiver has
 * buffer space; credits return to the sender (after the wire latency)
 * when the receiver forwards the message onward. This provides
 * loss-free backpressure across the link exactly like the paper's
 * token scheme: if a receiver stops draining, the sender's queue
 * grows and upstream traffic stalls.
 *
 * ## Credit ledger
 *
 * A returning credit is not an event of its own. releaseCredits()
 * reserves the event-queue seq a credit-return event would have had
 * (EventQueue::reserveSeq) and appends {tick, seq, bytes} to the
 * lane's ledger, a recycled ring. Before the lane reads its credits
 * (every send() and pump()), it applies each ledger entry that
 * orders at or before the running event, so it sees exactly the
 * credits the eager events would have delivered by then. A return
 * that lands while no message waits would only have added to the
 * count, so it needs no event. Only while a message waits for
 * credits does the lane hold one wake event, scheduled under the
 * oldest entry's reserved (tick, seq): it fires exactly where that
 * entry's credit-return event would have fired, so every delivery
 * tick and the order of every other event are unchanged.
 */

#ifndef BLUEDBM_NET_LINK_HH
#define BLUEDBM_NET_LINK_HH

// lint: hot-path

#include <cstdint>
#include <deque>
#include <vector>

#include "net/message.hh"
#include "sim/bandwidth.hh"
#include "sim/inline_function.hh"
#include "sim/simulator.hh"
#include "sim/types.hh"

namespace bluedbm {
namespace net {

/**
 * Per-hop completion hook: fires when a message leaves a buffer so
 * the upstream stage can release credits (backpressure chaining).
 * An InlineFunction rather than std::function so the move-only,
 * allocation-free property of the forwarding path is guaranteed by
 * the type (16 bytes cover the common capture: a lane pointer plus a
 * byte count) instead of depending on the standard library's SBO.
 */
using HopHook = sim::InlineFunction<void(), 16>;

/**
 * Physical parameters of one serial lane.
 */
struct LaneParams
{
    /** Physical signalling rate in bytes/second (10 Gb/s default). */
    double physBytesPerSec = 10e9 / 8.0;
    /**
     * Protocol efficiency: effective data rate / physical rate.
     * The paper measures 8.2 Gb/s effective on a 10 Gb/s link.
     */
    double efficiency = 0.82;
    /** Per-hop latency (wire + switch), 0.48 us in the paper. */
    sim::Tick hopLatency = sim::nsToTicks(480);
    /** Receiver buffer capacity in bytes (token pool). */
    std::uint32_t bufferBytes = 64 * 1024;

    /** Effective data rate in bytes/second. */
    double
    effectiveBytesPerSec() const
    {
        return physBytesPerSec * efficiency;
    }
};

/**
 * One direction of a serial link.
 */
class Lane
{
  public:
    /** Callback receiving a delivered message (a switch's arrival
     * hook: one pointer plus a lane index stays inline). */
    using Deliver = sim::InlineFunction<void(Message), 16>;

    /**
     * @param sim    simulation kernel
     * @param params physical parameters
     */
    Lane(sim::Simulator &sim, const LaneParams &params);

    /** Install the receiving switch's delivery callback. */
    void setDeliver(Deliver deliver) { deliver_ = std::move(deliver); }

    /**
     * Queue a message for transmission. Transmission starts when
     * credits and the wire allow; messages leave in FIFO order.
     *
     * @param msg      message to transmit
     * @param on_start optional callback fired when the message leaves
     *                 the queue and starts serializing; switches use
     *                 it to release the upstream lane's credits so
     *                 that backpressure chains across hops
     */
    void send(Message msg, HopHook on_start = {});

    /**
     * Return credits for @p bytes of receiver buffer. Called by the
     * receiver when a message leaves its buffer; the token flows back
     * over the reverse direction and arrives after the hop latency
     * (recorded in the credit ledger; see the file comment).
     */
    void releaseCredits(std::uint32_t bytes);

    /** Messages waiting for credits or wire. */
    std::size_t queued() const { return queue_.size(); }

    /** Bytes of receiver buffer available to this sender now,
     * counting every credit return that has landed. */
    std::uint32_t
    credits() const
    {
        std::uint32_t c = credits_;
        for (std::size_t i = 0; i < ledgerSize_; ++i) {
            const CreditReturn &r = ledgerAt(i);
            if (!sim_.reached(r.when, r.seq))
                break;
            c += r.bytes;
        }
        return c;
    }

    /** Total payload bytes delivered. */
    std::uint64_t deliveredBytes() const { return deliveredBytes_; }

    /** Total messages delivered. */
    std::uint64_t deliveredMessages() const { return deliveredMsgs_; }

    /** Lane parameters. */
    const LaneParams &params() const { return params_; }

    /** Wire-level bytes for a payload (adds protocol overhead). */
    std::uint64_t
    wireBytes(std::uint32_t payload_bytes) const
    {
        return static_cast<std::uint64_t>(
            static_cast<double>(payload_bytes) / params_.efficiency +
            0.5);
    }

  private:
    /** Try to start transmitting queued messages. */
    void pump();

    /** Add every ledger entry the clock has reached to credits_. */
    void applyCredits();

    /** Schedule the wake event at the oldest ledger entry if a
     * message waits for credits and none is scheduled yet. */
    void armWake();

    struct Pending
    {
        Message msg;
        HopHook onStart;
    };

    /** One credit return in flight: lands at (when, seq). */
    struct CreditReturn
    {
        sim::Tick when;
        std::uint32_t seq;
        std::uint32_t bytes;
    };

    /** Ledger entry @p i, counted from the oldest. */
    const CreditReturn &
    ledgerAt(std::size_t i) const
    {
        return ledger_[(ledgerHead_ + i) & (ledger_.size() - 1)];
    }

    sim::Simulator &sim_;
    LaneParams params_;
    sim::LatencyRateServer wire_;
    Deliver deliver_;
    std::deque<Pending> queue_;
    std::uint32_t credits_;
    /** Credit returns in (tick, seq) order: a ring whose power-of-two
     * capacity only grows to the most returns ever in flight at
     * once, so steady-state appends never allocate. */
    std::vector<CreditReturn> ledger_;
    std::size_t ledgerHead_ = 0;
    std::size_t ledgerSize_ = 0;
    /** Whether the wake event for the oldest entry is scheduled. */
    bool wakeArmed_ = false;
    std::uint64_t deliveredBytes_ = 0;
    std::uint64_t deliveredMsgs_ = 0;
};

} // namespace net
} // namespace bluedbm

#endif // BLUEDBM_NET_LINK_HH
