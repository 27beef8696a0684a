/**
 * @file
 * Word-packed bitmask for readiness sets in the cycle loop.
 *
 * Per-cycle arbitration over merge-tree ports (up to 2^16 of them)
 * visits only the ports that can move. Each module keeps small masks
 * updated on the events that change readiness, and the scan combines
 * them word by word: a caller passes a `word(w)` callable returning
 * the combined 64-bit word `w` (e.g. `arrived & ~(parked & full)`),
 * and the free functions below find or count set bits over index
 * ranges and over round-robin (cyclic) orders without materializing
 * the combination.
 *
 * Storage is reused across rounds: assign() reallocates only when the
 * mask grows past its previous size, never inside the cycle loop.
 */

#ifndef SPARCH_COMMON_BITMASK_HH
#define SPARCH_COMMON_BITMASK_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sparch
{

/** A fixed-size set of bit indices [0, n), n set by assign(). */
class Bitmask
{
  public:
    static constexpr std::size_t kWordBits = 64;

    /** Resize to `bits` bits, all cleared. */
    void
    assign(std::size_t bits)
    {
        words_.assign((bits + kWordBits - 1) / kWordBits, 0);
    }

    bool
    test(std::size_t i) const
    {
        return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
    }

    void
    set(std::size_t i)
    {
        words_[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
    }

    void
    reset(std::size_t i)
    {
        words_[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
    }

    void
    set(std::size_t i, bool value)
    {
        if (value)
            set(i);
        else
            reset(i);
    }

    /** Raw word `w` (bits 64w .. 64w+63); bits past the size are 0. */
    std::uint64_t word(std::size_t w) const { return words_[w]; }

    /** Visit every set bit in ascending order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            for (std::uint64_t bits = words_[w]; bits != 0;
                 bits &= bits - 1) {
                fn(w * kWordBits +
                   static_cast<std::size_t>(std::countr_zero(bits)));
            }
        }
    }

  private:
    std::vector<std::uint64_t> words_;
};

namespace bitmask
{

/** Bits [0, k) set, for k in [0, 64]. */
inline std::uint64_t
lowBits(std::size_t k)
{
    return k >= Bitmask::kWordBits ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << k) - 1;
}

/** Word `w` of a combined mask restricted to bit indices [from, end). */
template <typename WordFn>
std::uint64_t
clipped(const WordFn &word, std::size_t w, std::size_t from,
        std::size_t end)
{
    std::uint64_t bits = word(w);
    const std::size_t lo = w * Bitmask::kWordBits;
    if (from > lo)
        bits &= ~std::uint64_t{0} << (from - lo);
    if (end < lo + Bitmask::kWordBits)
        bits &= lowBits(end - lo);
    return bits;
}

/** First set index in [from, end), or `end` when there is none. */
template <typename WordFn>
std::size_t
findNext(const WordFn &word, std::size_t from, std::size_t end)
{
    if (from >= end)
        return end;
    const std::size_t last = (end - 1) / Bitmask::kWordBits;
    for (std::size_t w = from / Bitmask::kWordBits; w <= last; ++w) {
        const std::uint64_t bits = clipped(word, w, from, end);
        if (bits != 0) {
            return w * Bitmask::kWordBits +
                   static_cast<std::size_t>(std::countr_zero(bits));
        }
    }
    return end;
}

/** Number of set indices in [from, end). */
template <typename WordFn>
std::size_t
count(const WordFn &word, std::size_t from, std::size_t end)
{
    if (from >= end)
        return 0;
    std::size_t total = 0;
    const std::size_t last = (end - 1) / Bitmask::kWordBits;
    for (std::size_t w = from / Bitmask::kWordBits; w <= last; ++w)
        total += static_cast<std::size_t>(
            std::popcount(clipped(word, w, from, end)));
    return total;
}

/**
 * The n-bit window [base, base+n) of `bits` (base + n <= 64), rotated
 * so that index base+start lands on bit 0: bit i of the result is
 * round-robin offset i.
 */
inline std::uint64_t
rotated(std::uint64_t bits, std::size_t base, std::size_t n,
        std::size_t start)
{
    const std::uint64_t window = (bits >> base) & lowBits(n);
    if (start == 0)
        return window;
    return ((window >> start) | (window << (n - start))) & lowBits(n);
}

/**
 * Round-robin search over the `n` indices base .. base+n-1 visited in
 * the order base+start, base+start+1, ..., wrapping to base. Returns
 * the smallest offset >= `off` (position in that order) whose index is
 * set, or `n` when there is none.
 */
template <typename WordFn>
std::size_t
cyclicNext(const WordFn &word, std::size_t base, std::size_t n,
           std::size_t start, std::size_t off)
{
    if (off >= n)
        return n;
    if (base + n <= Bitmask::kWordBits) {
        // One word: rotate the n-bit window so offset 0 is bit 0,
        // drop offsets below `off`, count trailing zeros.
        const std::uint64_t bits = rotated(word(0), base, n, start) &
                                   (~std::uint64_t{0} << off);
        return bits == 0 ? n
                         : static_cast<std::size_t>(
                               std::countr_zero(bits));
    }
    const std::size_t tail = n - start; // offsets [0, tail) map upward
    if (off < tail) {
        const std::size_t hit =
            findNext(word, base + start + off, base + n);
        if (hit < base + n)
            return hit - base - start;
        off = tail;
    }
    const std::size_t hit =
        findNext(word, base + off - tail, base + start);
    return hit < base + start ? hit - base + tail : n;
}

/** Number of set indices at round-robin offsets [off, end). */
template <typename WordFn>
std::size_t
cyclicCount(const WordFn &word, std::size_t base, std::size_t n,
            std::size_t start, std::size_t off, std::size_t end)
{
    if (off >= end)
        return 0;
    if (base + n <= Bitmask::kWordBits) {
        const std::uint64_t bits = rotated(word(0), base, n, start) &
                                   (~std::uint64_t{0} << off) &
                                   lowBits(end);
        return static_cast<std::size_t>(std::popcount(bits));
    }
    const std::size_t tail = n - start;
    std::size_t total = 0;
    if (off < tail) {
        total += count(word, base + start + off,
                       base + start + std::min(end, tail));
    }
    if (end > tail) {
        total += count(word, base + (off > tail ? off - tail : 0),
                       base + end - tail);
    }
    return total;
}

} // namespace bitmask
} // namespace sparch

#endif // SPARCH_COMMON_BITMASK_HH
