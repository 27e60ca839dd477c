// Unit and property tests for the reuse-distance engines and miss
// counters: the naive stack is the executable definition; Olken must agree
// with it exactly, Kim approximately at group granularity.
#include <gtest/gtest.h>

#include <vector>

#include "reuse/flat_map.hpp"
#include "reuse/histogram.hpp"
#include "reuse/kim.hpp"
#include "reuse/naive.hpp"
#include "reuse/olken.hpp"
#include "util/prng.hpp"

namespace spmvcache {
namespace {

TEST(FlatMap, PutFindOverwrite) {
    FlatMap64 map;
    EXPECT_EQ(map.find(42), nullptr);
    map.put(42, 1);
    map.put(0, 2);  // zero key is valid
    ASSERT_NE(map.find(42), nullptr);
    EXPECT_EQ(*map.find(42), 1u);
    map.put(42, 9);
    EXPECT_EQ(*map.find(42), 9u);
    EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMap, GrowsPastInitialCapacity) {
    FlatMap64 map(4);
    for (std::uint64_t k = 0; k < 10000; ++k) map.put(k * 3, k);
    EXPECT_EQ(map.size(), 10000u);
    for (std::uint64_t k = 0; k < 10000; ++k) {
        ASSERT_NE(map.find(k * 3), nullptr);
        EXPECT_EQ(*map.find(k * 3), k);
    }
    EXPECT_EQ(map.find(1), nullptr);
}

TEST(NaiveStack, TextbookSequence) {
    NaiveStackEngine e;
    // a b c a -> RD(a)=2; b -> 2; b -> 0; a -> 2.
    EXPECT_EQ(e.access(10), kInfiniteDistance);
    EXPECT_EQ(e.access(20), kInfiniteDistance);
    EXPECT_EQ(e.access(30), kInfiniteDistance);
    EXPECT_EQ(e.access(10), 2u);
    EXPECT_EQ(e.access(20), 2u);
    EXPECT_EQ(e.access(20), 0u);
    EXPECT_EQ(e.access(10), 1u);
    EXPECT_EQ(e.distinct_lines(), 3u);
}

TEST(Olken, MatchesNaiveOnRandomTrace) {
    NaiveStackEngine naive;
    OlkenEngine olken;
    Xoshiro256 rng(99);
    for (int i = 0; i < 20000; ++i) {
        // Mixture of hot lines and a long tail.
        const std::uint64_t line = rng.uniform() < 0.7
                                       ? rng.bounded(64)
                                       : rng.bounded(5000) + 64;
        EXPECT_EQ(olken.access(line), naive.access(line)) << "step " << i;
    }
    EXPECT_EQ(olken.distinct_lines(), naive.distinct_lines());
}

TEST(Olken, MatchesNaiveOnSequentialStreams) {
    NaiveStackEngine naive;
    OlkenEngine olken;
    // Two interleaved streams plus a small reused set: SpMV-shaped.
    for (int iter = 0; iter < 3; ++iter) {
        for (std::uint64_t i = 0; i < 3000; ++i) {
            for (const std::uint64_t line :
                 {100000 + i, 200000 + i, i % 37}) {
                EXPECT_EQ(olken.access(line), naive.access(line));
            }
        }
    }
}

TEST(Olken, CompactionPreservesDistances) {
    // Force many timestamp slots with a small distinct set so compaction
    // triggers repeatedly (initial slot space is 2^16).
    NaiveStackEngine naive;
    OlkenEngine olken(16);
    Xoshiro256 rng(3);
    for (int i = 0; i < 300000; ++i) {
        const std::uint64_t line = rng.bounded(128);
        ASSERT_EQ(olken.access(line), naive.access(line)) << "step " << i;
    }
}

/// access_batch must equal n in-order access() calls for any chunking —
/// including chunks straddling rehashes and (for Olken) compactions.
template <class Engine, class... Args>
void expect_batch_matches_serial(Args&&... args) {
    Xoshiro256 rng(2024);
    std::vector<std::uint64_t> lines;
    // Long enough to outrun Olken's 2^16 initial timestamp slots, so
    // compaction fires mid-batch.
    for (int i = 0; i < 150000; ++i)
        lines.push_back(rng.uniform() < 0.6 ? rng.bounded(96)
                                            : rng.bounded(20000) + 96);

    Engine serial(args...);
    std::vector<std::uint64_t> expected;
    expected.reserve(lines.size());
    for (const std::uint64_t line : lines)
        expected.push_back(serial.access(line));

    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{1024}, lines.size()}) {
        Engine batched(args...);
        std::vector<std::uint64_t> dists(lines.size());
        for (std::size_t i = 0; i < lines.size(); i += chunk) {
            const std::size_t n = std::min(chunk, lines.size() - i);
            batched.access_batch(lines.data() + i, dists.data() + i, n);
        }
        ASSERT_EQ(dists, expected) << "chunk " << chunk;
        EXPECT_EQ(batched.distinct_lines(), serial.distinct_lines());
    }
}

TEST(Olken, BatchMatchesSerialForEveryChunking) {
    expect_batch_matches_serial<OlkenEngine>();
}

TEST(Olken, BatchMatchesSerialAcrossCompaction) {
    // Tiny slot space: compaction fires inside batches.
    expect_batch_matches_serial<OlkenEngine>(std::size_t{16});
}

TEST(Kim, BatchMatchesSerialForEveryChunking) {
    expect_batch_matches_serial<KimEngine>(std::uint64_t{64});
}

TEST(Kim, BatchMatchesSerialWithWideGroups) {
    expect_batch_matches_serial<KimEngine>(std::uint64_t{1} << 16);
}

TEST(Olken, EvictedLineBehavesAsNeverAccessed) {
    // Differential: engine A accesses a probe line and immediately evicts
    // it; engine B never sees the probe. With no accesses between the
    // probe's insert and evict, the two engines' trees are isomorphic, so
    // every later distance must match — eviction fully unwinds the insert.
    OlkenEngine with_evict;
    OlkenEngine without;
    Xoshiro256 rng(77);
    for (int round = 0; round < 20000; ++round) {
        if (rng.uniform() < 0.25) {
            const std::uint64_t probe = 1u << 20;  // outside the common set
            (void)with_evict.access(probe);
            ASSERT_TRUE(with_evict.evict(probe));
        }
        const std::uint64_t line = rng.uniform() < 0.6
                                       ? rng.bounded(96)
                                       : rng.bounded(20000) + 96;
        ASSERT_EQ(with_evict.access(line), without.access(line))
            << "round " << round;
    }
    EXPECT_EQ(with_evict.distinct_lines(), without.distinct_lines());
}

TEST(Olken, EvictBasics) {
    OlkenEngine e;
    EXPECT_FALSE(e.evict(5));  // unknown line
    e.access(5);
    e.access(6);
    EXPECT_EQ(e.distinct_lines(), 2u);
    EXPECT_TRUE(e.evict(5));
    EXPECT_EQ(e.distinct_lines(), 1u);
    EXPECT_FALSE(e.evict(5));                      // already gone
    EXPECT_EQ(e.access(5), kInfiniteDistance);     // cold again
    EXPECT_EQ(e.access(6), 1u);                    // 5 re-inserted above it
}

TEST(Kim, EvictBasics) {
    KimEngine e(4);
    for (std::uint64_t line = 0; line < 40; ++line) e.access(line);
    EXPECT_EQ(e.distinct_lines(), 40u);
    EXPECT_FALSE(e.evict(999));
    EXPECT_TRUE(e.evict(17));
    EXPECT_EQ(e.distinct_lines(), 39u);
    EXPECT_FALSE(e.evict(17));
    // An evicted line is cold on re-access.
    EXPECT_EQ(e.access(17), kInfiniteDistance);
    EXPECT_EQ(e.distinct_lines(), 40u);
}

template <class Engine, class... Args>
void expect_for_each_line_tracks_membership(Args&&... args) {
    Engine e(args...);
    for (std::uint64_t line = 0; line < 100; ++line) e.access(line);
    ASSERT_TRUE(e.evict(10));
    ASSERT_TRUE(e.evict(90));
    std::vector<bool> seen(100, false);
    std::size_t count = 0;
    e.for_each_line([&](std::uint64_t line) {
        ASSERT_LT(line, 100u);
        EXPECT_FALSE(seen[line]) << "line " << line << " visited twice";
        seen[line] = true;
        ++count;
    });
    EXPECT_EQ(count, 98u);
    EXPECT_FALSE(seen[10]);
    EXPECT_FALSE(seen[90]);
    EXPECT_TRUE(seen[0]);
    EXPECT_TRUE(seen[99]);
}

TEST(Olken, ForEachLineTracksMembership) {
    expect_for_each_line_tracks_membership<OlkenEngine>();
}

TEST(Kim, ForEachLineTracksMembership) {
    expect_for_each_line_tracks_membership<KimEngine>(std::uint64_t{8});
}

TEST(Olken, ClearForgetsHistory) {
    OlkenEngine e;
    e.access(1);
    e.access(2);
    EXPECT_EQ(e.access(1), 1u);
    e.clear();
    EXPECT_EQ(e.access(1), kInfiniteDistance);
    EXPECT_EQ(e.distinct_lines(), 1u);
}

TEST(Olken, ReuseAcrossWordBoundariesMatchesNaive) {
    // Olken's alive marks are packed 64 per word; a query counts whole
    // words through the tree and the previous timestamp's own word up to
    // its bit. Reuse lines whose previous timestamps sit on either side of
    // a word edge, in the current (unfinished) word and in complete ones.
    NaiveStackEngine naive;
    OlkenEngine olken;
    // Line i gets timestamp i: words [0, 64), [64, 128), [128, 192), and
    // the current word holds 192..199.
    for (std::uint64_t line = 0; line < 200; ++line)
        ASSERT_EQ(olken.access(line), naive.access(line));
    for (const std::uint64_t line :
         {199u, 195u, 192u, 191u, 128u, 127u, 64u, 63u, 0u, 127u, 64u, 63u}) {
        ASSERT_EQ(olken.access(line), naive.access(line)) << "line " << line;
    }
    // Evict the line just below each edge (its latest timestamp is now in
    // the current word, which the tree does not cover), then sweep the
    // edge's neighbourhood: a cold re-insert among reuses from complete
    // words.
    for (const std::uint64_t edge : {64u, 128u, 192u}) {
        ASSERT_EQ(olken.evict(edge - 1), naive.evict(edge - 1));
        for (std::uint64_t line = edge - 3; line < edge + 3; ++line)
            ASSERT_EQ(olken.access(line), naive.access(line))
                << "edge " << edge << " line " << line;
    }
    EXPECT_EQ(olken.distinct_lines(), naive.distinct_lines());
}

TEST(Olken, EvictionsThenCompactionMatchNaive) {
    // Evict several lines at a time between accesses of a stream that runs
    // through several compactions (2^16 initial slots): renumbering must
    // skip every unmarked timestamp.
    NaiveStackEngine naive;
    OlkenEngine olken(16);
    Xoshiro256 rng(5);
    for (int i = 0; i < 200000; ++i) {
        if (i % 5000 == 4999) {
            for (int k = 0; k < 8; ++k) {
                const std::uint64_t victim = rng.bounded(400);
                ASSERT_EQ(olken.evict(victim), naive.evict(victim))
                    << "step " << i;
            }
        }
        const std::uint64_t line = rng.bounded(400);
        ASSERT_EQ(olken.access(line), naive.access(line)) << "step " << i;
    }
    EXPECT_EQ(olken.distinct_lines(), naive.distinct_lines());
}

/// Mostly cold lines, each followed now and then by a reuse of a recent
/// line and, rarely, of a far one: `distinct` alive lines with short
/// naive-stack walks.
std::vector<std::uint64_t> growing_trace(std::uint64_t distinct,
                                         std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<std::uint64_t> lines;
    for (std::uint64_t fresh = 0; fresh < distinct; ++fresh) {
        lines.push_back(fresh);
        if (fresh % 16 == 15) lines.push_back(fresh - rng.bounded(16));
        if (fresh % 4096 == 4095) lines.push_back(rng.bounded(fresh));
    }
    return lines;
}

TEST(Olken, SlotGrowthThroughTwoDoublingsMatchesNaive) {
    // 150k distinct lines from 2^16 initial slots: the first compaction
    // finds > 2^15 alive (slots double to 2^17), the second > 2^16 alive
    // (slots double again to 2^18).
    NaiveStackEngine naive;
    OlkenEngine olken(16);
    const std::vector<std::uint64_t> lines = growing_trace(150000, 8);
    ASSERT_GT(lines.size(), std::size_t{1} << 17);
    for (std::size_t i = 0; i < lines.size(); ++i)
        ASSERT_EQ(olken.access(lines[i]), naive.access(lines[i]))
            << "step " << i;
    EXPECT_EQ(olken.distinct_lines(), 150000u);
}

TEST(Olken, ClearAfterGrowthMatchesFreshEngine) {
    OlkenEngine grown(16);
    for (const std::uint64_t line : growing_trace(150000, 9))
        (void)grown.access(line);
    grown.clear();
    EXPECT_EQ(grown.distinct_lines(), 0u);

    // A trace that compacts again from the reset slot space.
    OlkenEngine fresh(16);
    NaiveStackEngine naive;
    Xoshiro256 rng(10);
    for (int i = 0; i < 150000; ++i) {
        const std::uint64_t line = rng.uniform() < 0.7
                                       ? rng.bounded(64)
                                       : rng.bounded(2000) + 64;
        const std::uint64_t expected = naive.access(line);
        ASSERT_EQ(grown.access(line), expected) << "step " << i;
        ASSERT_EQ(fresh.access(line), expected) << "step " << i;
    }
    EXPECT_EQ(grown.distinct_lines(), fresh.distinct_lines());
}

TEST(Kim, ExactForSmallStacksWithLargeGroups) {
    // With one group larger than the distinct set, distances collapse to
    // group-midpoint estimates; with group capacity 1 they are exact.
    KimEngine kim(1);
    NaiveStackEngine naive;
    Xoshiro256 rng(5);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t line = rng.bounded(50);
        EXPECT_EQ(kim.access(line), naive.access(line)) << "step " << i;
    }
}

TEST(Kim, ApproximatesWithinGroupCapacity) {
    constexpr std::uint64_t kGroup = 64;
    KimEngine kim(kGroup);
    NaiveStackEngine naive;
    Xoshiro256 rng(8);
    for (int i = 0; i < 30000; ++i) {
        const std::uint64_t line = rng.bounded(2000);
        const auto approx = kim.access(line);
        const auto exact = naive.access(line);
        if (exact == kInfiniteDistance) {
            EXPECT_EQ(approx, kInfiniteDistance);
        } else {
            // Kim et al.: error bounded by the group capacity.
            const auto lo = exact >= kGroup ? exact - kGroup : 0;
            EXPECT_GE(approx, lo) << "step " << i;
            EXPECT_LE(approx, exact + kGroup) << "step " << i;
        }
    }
}

TEST(Kim, GroupChainStaysBounded) {
    KimEngine kim(128);
    for (std::uint64_t line = 0; line < 10000; ++line) kim.access(line);
    // 10000 distinct lines / capacity 128 -> ~79 groups.
    EXPECT_GE(kim.group_count(), 70u);
    EXPECT_LE(kim.group_count(), 90u);
    EXPECT_EQ(kim.distinct_lines(), 10000u);
}

TEST(CapacityMissCounter, ExactThresholds) {
    CapacityMissCounter counter({4, 16});
    // Distances: 3 (hit@4), 4 (miss@4 hit... miss at 4, hit at 16), 100
    // (miss at both), infinite (cold).
    counter.record(3);
    counter.record(4);
    counter.record(100);
    counter.record(kInfiniteDistance);
    EXPECT_EQ(counter.capacity_misses(4), 2u);
    EXPECT_EQ(counter.capacity_misses(16), 1u);
    EXPECT_EQ(counter.cold_misses(), 1u);
    EXPECT_EQ(counter.total_misses(4), 3u);
    EXPECT_EQ(counter.accesses(), 4u);
}

TEST(CapacityMissCounter, MatchesDirectCountOnRandomDistances) {
    const std::vector<std::uint64_t> caps = {8, 64, 512, 4096};
    CapacityMissCounter counter(caps);
    Xoshiro256 rng(21);
    std::vector<std::uint64_t> distances;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t d = rng.bounded(8192);
        distances.push_back(d);
        counter.record(d);
    }
    for (const auto cap : caps) {
        std::uint64_t expected = 0;
        for (const auto d : distances)
            if (d >= cap) ++expected;
        EXPECT_EQ(counter.capacity_misses(cap), expected) << "cap " << cap;
    }
}

TEST(CapacityMissCounter, RejectsUnknownCapacity) {
    CapacityMissCounter counter({8});
    EXPECT_THROW((void)counter.capacity_misses(9), ContractViolation);
}

TEST(ReuseHistogram, BucketsAndMergar) {
    ReuseHistogram h;
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(kInfiniteDistance);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.cold(), 1u);
    EXPECT_EQ(h.bucket(0), 1u);  // distance 0
    EXPECT_EQ(h.bucket(1), 1u);  // distance 1
    EXPECT_EQ(h.bucket(2), 2u);  // distances 2..3

    ReuseHistogram h2;
    h2.record(0);
    h.merge(h2);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.total(), 6u);
}

TEST(ReuseHistogram, MissesAtLeastMonotone) {
    ReuseHistogram h;
    Xoshiro256 rng(2);
    for (int i = 0; i < 5000; ++i) h.record(rng.bounded(1 << 20));
    double prev = h.misses_at_least(1);
    for (std::uint64_t cap = 2; cap <= (1u << 20); cap *= 2) {
        const double cur = h.misses_at_least(cap);
        EXPECT_LE(cur, prev + 1e-9);
        prev = cur;
    }
    EXPECT_NEAR(h.misses_at_least(1u << 21), 0.0, 1e-9);
}

// Property sweep: all three engines agree (Kim within tolerance) across
// trace shapes.
class EngineAgreement : public testing::TestWithParam<int> {};

TEST_P(EngineAgreement, AllEnginesConsistent) {
    const int shape = GetParam();
    NaiveStackEngine naive;
    OlkenEngine olken;
    KimEngine kim(32);
    Xoshiro256 rng(1000 + static_cast<std::uint64_t>(shape));
    for (int i = 0; i < 8000; ++i) {
        std::uint64_t line = 0;
        switch (shape) {
            case 0:  // uniform random
                line = rng.bounded(700);
                break;
            case 1:  // sequential stream
                line = static_cast<std::uint64_t>(i) % 900;
                break;
            case 2:  // strided
                line = (static_cast<std::uint64_t>(i) * 17) % 1024;
                break;
            case 3:  // skewed hot set
                line = rng.uniform() < 0.9 ? rng.bounded(16)
                                           : rng.bounded(4000);
                break;
            default:  // bursts
                line = (static_cast<std::uint64_t>(i) / 64) % 300;
                break;
        }
        const auto exact = naive.access(line);
        EXPECT_EQ(olken.access(line), exact);
        const auto approx = kim.access(line);
        if (exact == kInfiniteDistance) {
            EXPECT_EQ(approx, kInfiniteDistance);
        } else {
            EXPECT_LE(approx, exact + 32);
            EXPECT_GE(approx + 32, exact);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(TraceShapes, EngineAgreement,
                         testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace spmvcache
