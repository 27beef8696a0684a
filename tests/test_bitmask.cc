/**
 * @file
 * Bitmask helpers against a brute-force reference: round-robin search
 * and counting over one-word and multi-word windows, every start and
 * offset, including windows that do not begin at bit 0 (merge-tree
 * levels).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/bitmask.hh"
#include "common/random.hh"

namespace sparch
{
namespace
{

void
expectMatchesReference(std::size_t base, std::size_t n,
                       std::uint64_t seed)
{
    Rng rng(seed);
    Bitmask mask;
    mask.assign(base + n);
    std::vector<bool> ref(base + n, false);
    for (std::size_t i = 0; i < base + n; ++i) {
        if (rng.nextBounded(3) == 0) {
            mask.set(i);
            ref[i] = true;
        }
    }
    const auto word = [&](std::size_t w) { return mask.word(w); };
    const auto at = [&](std::size_t start, std::size_t off) {
        return ref[base + (start + off) % n];
    };
    for (std::size_t start = 0; start < n; ++start) {
        for (std::size_t off = 0; off <= n; ++off) {
            std::size_t want = off;
            while (want < n && !at(start, want))
                ++want;
            ASSERT_EQ(bitmask::cyclicNext(word, base, n, start, off), want)
                << "base " << base << " n " << n << " start " << start
                << " off " << off;
            for (const std::size_t end :
                 {off, std::min(off + 1, n), (off + n) / 2, n}) {
                std::size_t count = 0;
                for (std::size_t o = off; o < end; ++o)
                    count += at(start, o);
                ASSERT_EQ(bitmask::cyclicCount(word, base, n, start, off,
                                               end),
                          count)
                    << "base " << base << " n " << n << " start "
                    << start << " [" << off << ", " << end << ")";
            }
        }
    }
}

TEST(Bitmask, CyclicSearchAndCountMatchReference)
{
    for (const std::size_t n : {1u, 2u, 7u, 16u, 63u, 64u})
        expectMatchesReference(0, n, n);
    // Merge-tree level windows: [2^l, 2^(l+1)).
    for (const std::size_t level : {0u, 3u, 5u, 6u, 7u})
        expectMatchesReference(std::size_t{1} << level,
                               std::size_t{1} << level, 100 + level);
    // Multi-word windows at odd offsets.
    expectMatchesReference(0, 130, 7);
    expectMatchesReference(37, 100, 8);
}

TEST(Bitmask, ForEachVisitsSetBitsInOrderAndToleratesClearing)
{
    Bitmask mask;
    mask.assign(200);
    for (const std::size_t i : {0u, 5u, 63u, 64u, 127u, 199u})
        mask.set(i);
    std::vector<std::size_t> seen;
    mask.forEach([&](std::size_t i) {
        seen.push_back(i);
        mask.reset(i);
    });
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 5, 63, 64, 127, 199}));
    for (const std::size_t i : seen)
        EXPECT_FALSE(mask.test(i));
}

} // namespace
} // namespace sparch
