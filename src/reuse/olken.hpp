// Exact reuse distances in O(log n) per access (Olken's method).
//
// A Fenwick tree over access timestamps counts, for each reference, how
// many lines were touched more recently than the line's previous access.
// Timestamps grow monotonically; when the slot array fills up, the alive
// timestamps are compacted and renumbered (amortised O(1) per access).
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
    void fenwick_add(std::size_t index, int delta) noexcept;
    [[nodiscard]] std::uint64_t fenwick_prefix(std::size_t index) const noexcept;
    void compact();

    FlatMap64 last_access_;        ///< line -> timestamp of latest access
    std::vector<std::int32_t> tree_;  ///< Fenwick tree over timestamps
    std::size_t slots_ = 0;        ///< capacity of the timestamp space
    std::size_t now_ = 0;          ///< next timestamp to assign
    std::uint64_t alive_ = 0;      ///< number of distinct lines
};

}  // namespace spmvcache
