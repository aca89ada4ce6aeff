/**
 * @file
 * Host pace: a fixed arithmetic kernel run in short quanta between the
 * slices of a measured phase, so the phase's host time can be scaled
 * to a reference host speed.
 *
 * On a host shared with other tenants, one core's speed drifts by
 * 20-30% within seconds to minutes, and a single-threaded simulator
 * phase drifts with it. Quanta interleaved with the phase see the
 * same drift: a phase's host time x kRefQuantumSec / (its mean
 * quantum time) is its time at the reference speed. The kernel is
 * SECDED-style parity over a fixed 8 KB block, close to the
 * simulator's hottest loop (ECC encode), L1-resident so the
 * simulator's memory footprint does not change its speed, and part
 * of the benchmark, so no change under src/ changes it.
 */

#ifndef PERFBENCH_PACE_HH
#define PERFBENCH_PACE_HH

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>

namespace perfbench {

class HostPace
{
  public:
    /** Quantum time of the reference host: the value a quiet core of
     * the 4-core x86-64 VM the bounds were set on gives, rounded. */
    static constexpr double kRefQuantumSec = 200e-6;

    HostPace()
    {
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (auto &w : block_) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            w = x;
        }
        last_ = Clock::now();
    }

    /** Run one quantum; returns its host seconds. */
    double
    quantum()
    {
        auto t0 = Clock::now();
        std::uint64_t acc = sink_;
        for (int pass = 0; pass < kPasses; ++pass) {
            for (std::uint64_t w : block_) {
                w ^= acc;
                for (int i = 0; i < 7; ++i)
                    acc += std::uint64_t(std::popcount(w & (kMask << i)) & 1);
                acc += std::uint64_t(std::popcount(w));
            }
        }
        sink_ = acc;
        last_ = Clock::now();
        double s = std::chrono::duration<double>(last_ - t0).count();
        spent_ += s;
        ++quanta_;
        return s;
    }

    /** Run a quantum when kEvery has passed since the last one. */
    void
    tick()
    {
        if (Clock::now() - last_ >= kEvery)
            quantum();
    }

    /** Host seconds spent in quanta so far. */
    double spent() const { return spent_; }

    /** Factor that scales this host's times to the reference speed:
     * kRefQuantumSec ÷ the mean quantum time. */
    double
    refScale() const
    {
        return quanta_ ? kRefQuantumSec * double(quanta_) / spent_ : 1.0;
    }

  private:
    using Clock = std::chrono::steady_clock;
    static constexpr int kPasses = 16;
    static constexpr std::uint64_t kMask = 0x9249249249249249ull;
    static constexpr auto kEvery = std::chrono::milliseconds(2);

    std::array<std::uint64_t, 1024> block_;
    std::uint64_t sink_ = 0;
    Clock::time_point last_;
    double spent_ = 0.0;
    std::uint64_t quanta_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_PACE_HH
