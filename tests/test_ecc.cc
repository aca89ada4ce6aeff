/**
 * @file
 * Unit and property tests for the SECDED Hamming(72,64) codec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "flash/ecc.hh"
#include "sim/random.hh"

using namespace bluedbm;
using flash::EccResult;
using flash::Secded72;

namespace {

/** Flip bit @p pos of the 72-bit (word, check) pair. */
void
flipBit(std::uint64_t &word, std::uint8_t &check, unsigned pos)
{
    if (pos < 64)
        word ^= (1ull << pos);
    else
        check ^= static_cast<std::uint8_t>(1u << (pos - 64));
}

} // namespace

TEST(Ecc, CleanWordDecodesClean)
{
    sim::Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t w = rng.next();
        std::uint8_t c = Secded72::encodeWord(w);
        std::uint64_t w2 = w;
        EccResult r = Secded72::decodeWord(w2, c);
        EXPECT_EQ(r.correctedBits, 0u);
        EXPECT_FALSE(r.uncorrectable);
        EXPECT_EQ(w2, w);
    }
}

/** Property: every possible single-bit error is corrected. */
class EccSingleBit : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EccSingleBit, SingleBitErrorIsCorrected)
{
    unsigned pos = GetParam();
    sim::Rng rng(pos + 1);
    for (int trial = 0; trial < 20; ++trial) {
        std::uint64_t w = rng.next();
        std::uint8_t c = Secded72::encodeWord(w);
        std::uint64_t w2 = w;
        std::uint8_t c2 = c;
        flipBit(w2, c2, pos);
        EccResult r = Secded72::decodeWord(w2, c2);
        EXPECT_FALSE(r.uncorrectable) << "pos=" << pos;
        EXPECT_EQ(r.correctedBits, 1u) << "pos=" << pos;
        EXPECT_EQ(w2, w) << "data corrupted at pos=" << pos;
    }
}

INSTANTIATE_TEST_SUITE_P(AllPositions, EccSingleBit,
                         ::testing::Range(0u, 72u));

/** Property: double-bit errors are detected, never miscorrected. */
class EccDoubleBit
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(EccDoubleBit, DoubleBitErrorIsDetected)
{
    auto [p1, p2] = GetParam();
    if (p1 == p2)
        return;
    sim::Rng rng(p1 * 73 + p2);
    std::uint64_t w = rng.next();
    std::uint8_t c = Secded72::encodeWord(w);
    std::uint64_t w2 = w;
    std::uint8_t c2 = c;
    flipBit(w2, c2, p1);
    flipBit(w2, c2, p2);
    EccResult r = Secded72::decodeWord(w2, c2);
    EXPECT_TRUE(r.uncorrectable)
        << "p1=" << p1 << " p2=" << p2;
}

INSTANTIATE_TEST_SUITE_P(
    SampledPairs, EccDoubleBit,
    ::testing::Combine(::testing::Values(0u, 1u, 5u, 31u, 63u, 64u,
                                         70u, 71u),
                       ::testing::Values(2u, 3u, 17u, 40u, 62u, 65u,
                                         68u, 71u)));

TEST(Ecc, PageEncodeDecodeRoundTrip)
{
    sim::Rng rng(5);
    std::vector<std::uint8_t> page(8192);
    for (auto &b : page)
        b = static_cast<std::uint8_t>(rng.next());
    auto check = Secded72::encode(page);
    EXPECT_EQ(check.size(), 1024u);

    auto copy = page;
    EccResult r = Secded72::decode(copy, check);
    EXPECT_EQ(r.correctedBits, 0u);
    EXPECT_FALSE(r.uncorrectable);
    EXPECT_EQ(copy, page);
}

TEST(Ecc, PageScatteredSingleBitErrorsAllCorrected)
{
    sim::Rng rng(6);
    std::vector<std::uint8_t> page(4096);
    for (auto &b : page)
        b = static_cast<std::uint8_t>(rng.next());
    auto check = Secded72::encode(page);

    auto corrupted = page;
    // One bit flip in each of 10 distinct words: all correctable.
    for (int w = 0; w < 10; ++w) {
        std::size_t byte = std::size_t(w) * 8 + (rng.next() % 8);
        corrupted[byte] ^= static_cast<std::uint8_t>(
            1u << (rng.next() % 8));
    }
    EccResult r = Secded72::decode(corrupted, check);
    EXPECT_EQ(r.correctedBits, 10u);
    EXPECT_FALSE(r.uncorrectable);
    EXPECT_EQ(corrupted, page);
}

TEST(Ecc, PageDoubleErrorInOneWordIsUncorrectable)
{
    std::vector<std::uint8_t> page(512, 0xa5);
    auto check = Secded72::encode(page);
    auto corrupted = page;
    corrupted[0] ^= 0x03; // two bits in word 0
    EccResult r = Secded72::decode(corrupted, check);
    EXPECT_TRUE(r.uncorrectable);
}

TEST(Ecc, PartialTailWordIsProtected)
{
    // 12 bytes: one full word + 4 tail bytes.
    std::vector<std::uint8_t> data{1, 2, 3, 4, 5, 6, 7, 8,
                                   9, 10, 11, 12};
    auto check = Secded72::encode(data);
    EXPECT_EQ(check.size(), 2u);

    auto corrupted = data;
    corrupted[9] ^= 0x10;
    EccResult r = Secded72::decode(corrupted, check);
    EXPECT_EQ(r.correctedBits, 1u);
    EXPECT_FALSE(r.uncorrectable);
    EXPECT_EQ(corrupted, data);
}

TEST(Ecc, CheckBytesHelper)
{
    EXPECT_EQ(Secded72::checkBytes(8192), 1024u);
    EXPECT_EQ(Secded72::checkBytes(1), 1u);
    EXPECT_EQ(Secded72::checkBytes(0), 0u);
    EXPECT_EQ(Secded72::checkBytes(9), 2u);
}

TEST(Ecc, AlignedSliceEncodeMatchesWholePage)
{
    // Check bytes are word-local: encoding a word-aligned slice (whole
    // words, or running to the page end) gives the matching sub-range
    // of the whole page's check bytes, which is what lets the NAND
    // model encode only the sensed range. A 13-byte page tail
    // exercises the short last word.
    sim::Rng rng(12);
    std::vector<std::uint8_t> page(8 * 40 + 13);
    for (auto &b : page)
        b = static_cast<std::uint8_t>(rng.next());
    auto whole = Secded72::encode(page);
    for (std::size_t w0 = 0; w0 < whole.size(); w0 += 3) {
        for (std::size_t bytes : {8ul, 16ul, 64ul, 336ul}) {
            std::size_t first = w0 * 8;
            std::size_t last = std::min(page.size(), first + bytes);
            std::vector<std::uint8_t> slice(page.begin() + first,
                                            page.begin() + last);
            auto check = Secded72::encode(slice);
            ASSERT_EQ(check.size(), Secded72::checkBytes(slice.size()));
            EXPECT_TRUE(std::equal(check.begin(), check.end(),
                                   whole.begin() + w0))
                << "word " << w0 << " bytes " << bytes;
        }
    }
}

TEST(EccDeath, DecodeRejectsCheckOfWrongLength)
{
    // A short check vector used to verify only the words it covered
    // and report the rest clean.
    std::vector<std::uint8_t> page(64, 0x3c);
    auto check = Secded72::encode(page);
    std::vector<std::uint8_t> none;
    EXPECT_DEATH(Secded72::decode(page, none), "needs 8 check bytes");
    check.pop_back();
    EXPECT_DEATH(Secded72::decode(page, check), "got 7");
    check.resize(9);
    EXPECT_DEATH(Secded72::decode(page, check), "got 9");
}
