#include "flash/ecc.hh"

#include <array>
#include <bit>
#include <cstring>

#include "sim/logging.hh"

namespace bluedbm {
namespace flash {

namespace {

/**
 * Codeword layout: positions 1..71, where positions that are powers of
 * two hold the 7 Hamming parity bits and the remaining 64 positions
 * hold data bits in ascending order. Conceptual position 0 holds the
 * overall (DED) parity bit.
 */
struct Layout
{
    std::array<std::uint8_t, 64> dataPos;   //!< data bit -> position
    std::array<std::int8_t, 72> posToData;  //!< position -> data bit
    std::array<std::uint64_t, 7> parityMask; //!< data covered by p_i

    Layout()
    {
        posToData.fill(-1);
        int k = 0;
        for (int pos = 1; pos < 72; ++pos) {
            if ((pos & (pos - 1)) == 0)
                continue; // parity position
            dataPos[k] = static_cast<std::uint8_t>(pos);
            posToData[pos] = static_cast<std::int8_t>(k);
            ++k;
        }
        for (int i = 0; i < 7; ++i) {
            std::uint64_t mask = 0;
            for (int b = 0; b < 64; ++b) {
                if (dataPos[b] & (1 << i))
                    mask |= (1ull << b);
            }
            parityMask[i] = mask;
        }
    }
};

const Layout &
layout()
{
    static const Layout l;
    return l;
}

inline int
parity64(std::uint64_t v)
{
    return std::popcount(v) & 1;
}

std::uint64_t
loadWord(const std::uint8_t *p, std::size_t avail)
{
    std::uint64_t w = 0;
    std::memcpy(&w, p, avail >= 8 ? 8 : avail);
    return w;
}

void
storeWord(std::uint8_t *p, std::size_t avail, std::uint64_t w)
{
    std::memcpy(p, &w, avail >= 8 ? 8 : avail);
}

} // namespace

std::uint8_t
Secded72::encodeWord(std::uint64_t word)
{
    const Layout &l = layout();
    std::uint8_t check = 0;
    int parity_of_parities = 0;
    for (int i = 0; i < 7; ++i) {
        int p = parity64(word & l.parityMask[i]);
        check |= static_cast<std::uint8_t>(p << i);
        parity_of_parities ^= p;
    }
    // Overall parity covers every bit of the codeword (positions
    // 1..71); stored in check bit 7 (conceptual position 0).
    int overall = parity64(word) ^ parity_of_parities;
    check |= static_cast<std::uint8_t>(overall << 7);
    return check;
}

EccResult
Secded72::decodeWord(std::uint64_t &word, std::uint8_t check)
{
    EccResult res;
    std::uint8_t expected = encodeWord(word);
    if (expected == check)
        return res; // clean, fast path

    const Layout &l = layout();

    // Syndrome: XOR of the positions of all set bits in the received
    // codeword. A valid codeword yields zero.
    unsigned syndrome = 0;
    std::uint64_t w = word;
    while (w) {
        int b = std::countr_zero(w);
        w &= w - 1;
        syndrome ^= l.dataPos[b];
    }
    for (int i = 0; i < 7; ++i) {
        if (check & (1 << i))
            syndrome ^= (1u << i);
    }

    // Overall parity across all 72 bits, including the stored DED bit.
    int total = parity64(word);
    total ^= std::popcount(static_cast<unsigned>(check)) & 1;

    if (total == 0) {
        // Even parity but nonzero syndrome: double-bit error.
        res.uncorrectable = true;
        return res;
    }
    if (syndrome == 0) {
        // The overall parity bit itself flipped; data is intact.
        res.correctedBits = 1;
        return res;
    }
    if (syndrome >= 72) {
        // Syndrome points outside the codeword: >= 3 errors.
        res.uncorrectable = true;
        return res;
    }
    if ((syndrome & (syndrome - 1)) == 0) {
        // A parity bit flipped; data is intact.
        res.correctedBits = 1;
        return res;
    }
    int data_bit = l.posToData[syndrome];
    if (data_bit < 0) {
        res.uncorrectable = true;
        return res;
    }
    word ^= (1ull << data_bit);
    res.correctedBits = 1;
    return res;
}

std::vector<std::uint8_t>
Secded72::encode(const std::vector<std::uint8_t> &data)
{
    std::size_t words = (data.size() + 7) / 8;
    std::vector<std::uint8_t> check(words);
    for (std::size_t i = 0; i < words; ++i) {
        std::size_t off = i * 8;
        std::uint64_t w = loadWord(data.data() + off,
                                   data.size() - off);
        check[i] = encodeWord(w);
    }
    return check;
}

EccResult
Secded72::decode(std::vector<std::uint8_t> &data,
                 const std::vector<std::uint8_t> &check)
{
    std::size_t words = checkBytes(data.size());
    if (check.size() != words)
        sim::panic("SECDED decode of %zu bytes needs %zu check bytes, "
                   "got %zu", data.size(), words, check.size());
    EccResult res;
    for (std::size_t i = 0; i < words; ++i) {
        std::size_t off = i * 8;
        std::size_t avail = data.size() - off;
        std::uint64_t w = loadWord(data.data() + off, avail);
        EccResult r = decodeWord(w, check[i]);
        if (r.correctedBits)
            storeWord(data.data() + off, avail, w);
        res.correctedBits += r.correctedBits;
        res.uncorrectable = res.uncorrectable || r.uncorrectable;
    }
    return res;
}

} // namespace flash
} // namespace bluedbm
