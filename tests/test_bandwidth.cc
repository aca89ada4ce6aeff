/**
 * @file
 * Unit tests for latency-rate servers.
 */

#include <gtest/gtest.h>

#include "sim/bandwidth.hh"
#include "sim/types.hh"

using namespace bluedbm;
using sim::Tick;

TEST(LatencyRateServer, SingleTransferTiming)
{
    // 1 GB/s, 10 us latency: 8192 bytes serialize in 8.192 us.
    sim::LatencyRateServer ch(1e9, sim::usToTicks(10));
    Tick done = ch.occupy(0, 8192);
    EXPECT_EQ(done, sim::nsToTicks(8192) + sim::usToTicks(10));
    EXPECT_EQ(ch.busyUntil(), sim::nsToTicks(8192));
}

TEST(LatencyRateServer, BackToBackTransfersPipeline)
{
    sim::LatencyRateServer ch(1e9, sim::usToTicks(1));
    Tick d1 = ch.occupy(0, 1000);
    Tick d2 = ch.occupy(0, 1000);
    // Second transfer waits for the first to clear the channel but the
    // latencies overlap.
    EXPECT_EQ(d2 - d1, sim::nsToTicks(1000));
}

TEST(LatencyRateServer, IdleChannelStartsImmediately)
{
    sim::LatencyRateServer ch(1e9, 0);
    ch.occupy(0, 1000);
    // Issue long after the channel drained.
    Tick later = sim::usToTicks(100);
    Tick done = ch.occupy(later, 1000);
    EXPECT_EQ(done, later + sim::nsToTicks(1000));
}

TEST(LatencyRateServer, SustainedRateMatchesConfig)
{
    // Push 1000 x 8 KB through a 1.2 GB/s channel; the finish time
    // must correspond to 1.2 GB/s within rounding.
    sim::LatencyRateServer ch(1.2e9, 0);
    Tick done = 0;
    const std::uint64_t n = 1000, sz = 8192;
    for (std::uint64_t i = 0; i < n; ++i)
        done = ch.occupy(0, sz);
    double rate = sim::bytesPerSec(n * sz, done);
    EXPECT_NEAR(rate, 1.2e9, 1.2e9 * 1e-3);
    EXPECT_EQ(ch.totalBytes(), n * sz);
}

TEST(LatencyRateServer, TracksTotalBytes)
{
    sim::LatencyRateServer ch(1e9, 0);
    ch.occupy(0, 100);
    ch.occupy(0, 200);
    EXPECT_EQ(ch.totalBytes(), 300u);
}
