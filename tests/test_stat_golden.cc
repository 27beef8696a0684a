/**
 * @file
 * Exactness oracle for the cycle loop: pins every simulated statistic
 * (the whole StatSet except host-time `profile.*` keys), the cycle
 * count, the DRAM byte total and the product matrix bit for bit, over
 * configurations that reach every arbitration path of the pipeline —
 * the three replacement policies, the prefetcher bypass, rows longer
 * than the prefetch buffer (streamed), condensing off, trees wider
 * than 64 ports, tiny per-port fetch windows and multi-round plans
 * with stored partial inputs.
 *
 * The fig12 CSV comparison sees only the per-record columns; stall and
 * occupancy counters are visible only here. A host-side optimisation
 * of the cycle loop must leave every one of these values unchanged.
 * On mismatch the test prints the full canonical dump and the
 * replacement golden line.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/sparch_simulator.hh"
#include "matrix/generators.hh"
#include "matrix/rmat.hh"

namespace sparch
{
namespace
{

/** FNV-1a over a byte range, chained through `h`. */
std::uint64_t
fnv(std::uint64_t h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

/** Canonical "key=<hex bits>" dump of every non-profile statistic. */
std::string
statDump(const StatSet &stats)
{
    std::string out;
    for (const auto &[name, value] : stats.all()) {
        if (name.rfind("profile.", 0) == 0)
            continue;
        char bits[32];
        std::snprintf(bits, sizeof bits, "%016llx",
                      static_cast<unsigned long long>(
                          std::bit_cast<std::uint64_t>(value)));
        out += name + "=" + bits + "\n";
    }
    return out;
}

std::uint64_t
productHash(const CsrMatrix &m)
{
    std::uint64_t h = kFnvBasis;
    const Index dims[2] = {m.rows(), m.cols()};
    h = fnv(h, dims, sizeof dims);
    h = fnv(h, m.rowPtr().data(), m.rowPtr().size() * sizeof(Index));
    h = fnv(h, m.colIdx().data(), m.colIdx().size() * sizeof(Index));
    for (const Value v : m.values()) {
        const auto bits = std::bit_cast<std::uint64_t>(v);
        h = fnv(h, &bits, sizeof bits);
    }
    return h;
}

struct Golden
{
    const char *name;
    Cycle cycles;
    Bytes bytes_total;
    std::size_t product_nnz;
    std::uint64_t product_hash;
    std::uint64_t stats_hash;
};

/**
 * Pinned values: {name, cycles, bytesTotal, product nnz, product hash,
 * stats hash}. Recorded with the full-scan cycle loop that predates
 * the readiness masks, so they certify the masks change no decision.
 */
const Golden kGoldens[] = {
    {"table1_rmat", 15235, 662472, 46487,
     0x62bdce8245b28f9ull, 0x5696edd9e26bfce3ull},
    {"table1_uniform", 2915, 356532, 23098,
     0x6ea3b3542cb66befull, 0x2454d60c34c6d6f4ull},
    {"tight_buffer_belady", 24513, 1455704, 46487,
     0x9b9fe2832fb6ea10ull, 0x450ef782e5f715e7ull},
    {"tight_buffer_lru", 34083, 1785536, 46487,
     0x1b431cfc13fa6b2bull, 0x17f03f316942fe88ull},
    {"tight_buffer_fifo", 37906, 2033588, 46487,
     0x243175c5314e28a1ull, 0x2dc6bd605ec3607ull},
    {"prefetcher_off", 37487, 1849320, 46487,
     0x17cc03c0e533425full, 0xb0af4e25f727bbe3ull},
    {"streamed_rows", 50330, 1286312, 17444,
     0x1619f37a1c30e159ull, 0xaa1d53e81b1a1c83ull},
    {"condensing_off", 7552, 789256, 23098,
     0xf86a203f794ec334ull, 0x924ce8c8612142e1ull},
    {"layers4", 14968, 996632, 46487,
     0xa1130b336f2bdd9full, 0x4d8ac74070dc0522ull},
    {"layers7", 7312, 655804, 23098,
     0x129c62da61441754ull, 0x716648e2c3981ea6ull},
    {"narrow_fetch", 23073, 662472, 46487,
     0x29aa84230c9705c4ull, 0x29a7631f991d7670ull},
    {"multi_round", 7550, 336744, 17444,
     0xefb6af797daa5802ull, 0x902cba5293c65602ull},
};

const Golden &
golden(const std::string &name)
{
    for (const Golden &g : kGoldens) {
        if (name == g.name)
            return g;
    }
    static const Golden missing{"<missing>", 0, 0, 0, 0, 0};
    return missing;
}

void
expectPinned(const std::string &name, const SpArchConfig &cfg,
             const CsrMatrix &a, const CsrMatrix &b)
{
    const SpArchResult r = SpArchSimulator(cfg).multiply(a, b);
    const std::string dump = statDump(r.stats);
    const std::uint64_t stats_hash =
        fnv(kFnvBasis, dump.data(), dump.size());
    const std::uint64_t product_hash = productHash(r.result);
    const Golden &g = golden(name);
    const bool match = r.cycles == g.cycles &&
                       r.bytesTotal == g.bytes_total &&
                       r.result.nnz() == g.product_nnz &&
                       product_hash == g.product_hash &&
                       stats_hash == g.stats_hash;
    EXPECT_TRUE(match)
        << name << " drifted from its golden; stats:\n"
        << dump << "actual golden line:\n    {\"" << name << "\", "
        << r.cycles << ", " << r.bytesTotal << ", " << r.result.nnz()
        << ", 0x" << std::hex << product_hash << "ull, 0x"
        << stats_hash << "ull},";
}

CsrMatrix
rmat()
{
    return rmatGenerate(512, 8, 21);
}

CsrMatrix
powerLaw()
{
    return generatePowerLaw(600, 6.0, 1.6, 22);
}

CsrMatrix
uniform()
{
    return generateUniform(400, 400, 3200, 23);
}

TEST(StatGolden, TableOne)
{
    expectPinned("table1_rmat", SpArchConfig{}, rmat(), rmat());
    expectPinned("table1_uniform", SpArchConfig{}, uniform(), uniform());
}

TEST(StatGolden, ReplacementPolicies)
{
    // A buffer at its 4-lines-per-way floor with half-size lines keeps
    // the replacement machinery (and mid-scan evictions) busy.
    for (const auto policy :
         {ReplacementPolicy::Belady, ReplacementPolicy::Lru,
          ReplacementPolicy::Fifo}) {
        SpArchConfig cfg;
        cfg.mergeTree.layers = 4;
        cfg.prefetchLines = 64;
        cfg.prefetchLineElems = 24;
        cfg.replacement = policy;
        expectPinned(std::string("tight_buffer_") +
                         replacementPolicyName(policy),
                     cfg, rmat(), rmat());
    }
}

TEST(StatGolden, PrefetcherOff)
{
    SpArchConfig cfg;
    cfg.rowPrefetcher = false;
    expectPinned("prefetcher_off", cfg, rmat(), rmat());
}

TEST(StatGolden, StreamedLongRows)
{
    // 2 ways x 4 lines x 32 elements: any row longer than 256 nonzeros
    // bypasses the buffer and streams.
    SpArchConfig cfg;
    cfg.mergeTree.layers = 1;
    cfg.prefetchLines = 8;
    cfg.prefetchLineElems = 32;
    expectPinned("streamed_rows", cfg, powerLaw(), powerLaw());
}

TEST(StatGolden, CondensingOff)
{
    SpArchConfig cfg;
    cfg.matrixCondensing = false;
    expectPinned("condensing_off", cfg, uniform(), uniform());
}

TEST(StatGolden, TreeDepths)
{
    SpArchConfig four;
    four.mergeTree.layers = 4;
    expectPinned("layers4", four, rmat(), rmat());

    // 128 ports: readiness state spans more than one 64-bit word.
    SpArchConfig seven;
    seven.mergeTree.layers = 7;
    seven.prefetchLines = 1024;
    seven.matrixCondensing = false;
    expectPinned("layers7", seven, uniform(), uniform());
}

TEST(StatGolden, NarrowFetchers)
{
    SpArchConfig cfg;
    cfg.aElementWindow = 2;
    cfg.mataFetchWidth = 3;
    expectPinned("narrow_fetch", cfg, rmat(), rmat());
}

TEST(StatGolden, MultiRoundStoredInputs)
{
    // 16 ways under a 600-column uncondensed operand: the Huffman plan
    // needs many rounds, most of them merging stored partials.
    SpArchConfig cfg;
    cfg.mergeTree.layers = 4;
    cfg.matrixCondensing = false;
    cfg.prefetchLines = 128;
    cfg.multipliers = 8;
    expectPinned("multi_round", cfg, powerLaw(), powerLaw());
}

} // namespace
} // namespace sparch
