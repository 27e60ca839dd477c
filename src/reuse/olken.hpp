// Exact reuse distances in O(log n) per access (Olken's method).
//
// Each access gets the next timestamp; the index marks the timestamp of
// every tracked line's latest access, so a reuse distance is the number of
// marks after the line's previous timestamp. The marks live in an alive
// bitset (one bit per timestamp slot) under a Fenwick tree over the
// bitset's 64-bit words, so a query is one word-level prefix walk plus one
// popcount of the partial word. The word currently being filled is kept
// out of the tree and added when it completes, which saves the walk for
// the new mark on every access.
//
// Timestamps grow monotonically; when the slot space fills up, compaction
// renumbers every alive timestamp to its rank in place (the hash map's
// values are rewritten, no sort), rebuilds the bitset as `alive` leading
// ones and the tree in O(words). A compaction runs after at least
// slots/2 accesses and costs O(map capacity + words), so it is amortised
// O(1) per access.
#pragma once

#include <cstdint>
#include <vector>

#include "reuse/engine.hpp"
#include "reuse/flat_map.hpp"

namespace spmvcache {

/// Exact engine; the workhorse behind methods (A) and (B).
class OlkenEngine {
public:
    /// Accesses ahead of the current one whose hash-map slots access_batch
    /// prefetches.
    static constexpr std::size_t kPrefetchAhead = 8;

    /// `expected_lines` presizes the hash map (purely a performance hint).
    explicit OlkenEngine(std::size_t expected_lines = 1024);

    /// Processes one access (one find_or_insert probe) and returns its
    /// reuse distance.
    std::uint64_t access(std::uint64_t line);

    /// Forgets all history.
    void clear();

    /// Number of distinct lines seen since clear().
    [[nodiscard]] std::uint64_t distinct_lines() const {
        return last_access_.size();
    }

    /// Processes `n` accesses, writing each reuse distance to `dists`.
    /// Identical results to n access() calls in order; the hash-map slot
    /// of the access kPrefetchAhead positions ahead is prefetched so its
    /// miss overlaps the current one.
    void access_batch(const std::uint64_t* lines, std::uint64_t* dists,
                      std::size_t n);

    /// Removes `line`'s history (SHARDS eviction when the sampling rate
    /// is lowered); returns whether the line was tracked. Subsequent
    /// distances behave as if the line had never been accessed.
    bool evict(std::uint64_t line);

    /// Calls fn(line) for every tracked line (arbitrary order).
    template <class Fn>
    void for_each_line(Fn&& fn) const {
        last_access_.for_each(
            [&](std::uint64_t line, std::uint64_t) { fn(line); });
    }

    /// Report-only: access_batch's lookahead depth (kPrefetchAhead).
    [[nodiscard]] static std::size_t interleave_width() {
        return kPrefetchAhead;
    }

    /// Report-only: access_batch always runs the one lookahead loop.
    [[nodiscard]] static const char* batch_mode() { return "simple"; }

private:
    /// Marks in `time`'s word up to and including `time` (one popcount).
    [[nodiscard]] std::uint64_t word_marks_through(
        std::uint64_t time) const noexcept;
    /// Marks at or before `time`: the tree's prefix over the words below
    /// it plus word_marks_through(time).
    [[nodiscard]] std::uint64_t marks_through(std::uint64_t time) const noexcept;
    void unmark(std::uint64_t time) noexcept;
    void fenwick_add(std::size_t word, std::int32_t delta) noexcept;
    /// Rebuilds bits_ and tree_ over `slots` slots holding marks
    /// 0..alive-1, and sets now_ = alive.
    void reset_index(std::size_t slots);
    void compact();

    FlatMap64 last_access_;            ///< line -> timestamp of latest access
    std::vector<std::uint64_t> bits_;  ///< alive bit per timestamp slot
    /// 1-based Fenwick tree of per-word mark counts. Covers the complete
    /// words below now_'s word; that word joins when now_ leaves it.
    std::vector<std::int32_t> tree_;
    std::size_t slots_ = 0;            ///< capacity of the timestamp space
    std::size_t now_ = 0;              ///< next timestamp to assign
    std::uint64_t alive_ = 0;          ///< number of distinct lines
};

}  // namespace spmvcache
