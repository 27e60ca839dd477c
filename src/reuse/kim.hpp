// Grouped-stack reuse-distance engine after Kim, Hill & Wood
// [SIGMETRICS'91], the algorithm the paper selects (§3.2.1) "because of its
// constant time complexity per reference".
//
// The LRU stack is divided into groups of fixed capacity. A hash map gives
// each line's group directly, so the reported distance — the number of
// lines in all groups above plus half the group's own size — is found
// without walking the stack: the cost per access is O(#groups), a constant
// for a fixed configuration and, crucially, *independent of the locality*
// of the trace (unlike list-based stack simulation, which costs O(distance)).
// Distances are approximate to within the group capacity.
#pragma once

#include <cstdint>
#include <vector>

#include "reuse/engine.hpp"
#include "reuse/flat_map.hpp"

namespace spmvcache {

/// Approximate engine with locality-independent per-access cost.
class KimEngine {
public:
    /// `group_capacity` trades accuracy (distances are +-capacity/2) for
    /// the number of groups. Pre: group_capacity >= 1.
    explicit KimEngine(std::uint64_t group_capacity = 512);

    /// Processes one access (one find_or_insert probe) and returns its
    /// approximate reuse distance.
    std::uint64_t access(std::uint64_t line);

    /// Forgets all history.
    void clear();

    /// Number of distinct lines seen since clear().
    [[nodiscard]] std::uint64_t distinct_lines() const { return line_count_; }

    /// Processes `n` accesses, writing each reuse distance to `dists`.
    /// Identical results to n access() calls in order; a lookahead
    /// pipeline prefetches the hash slot, node and list neighbours of
    /// upcoming accesses so their dependent misses overlap.
    void access_batch(const std::uint64_t* lines, std::uint64_t* dists,
                      std::size_t n);

    /// Removes `line`'s history (SHARDS eviction when the sampling rate
    /// is lowered); returns whether the line was tracked. The vacated
    /// pool slot is recycled by the next insertion.
    bool evict(std::uint64_t line);

    /// Calls fn(line) for every tracked line (arbitrary order).
    template <class Fn>
    void for_each_line(Fn&& fn) const {
        node_of_line_.for_each(
            [&](std::uint64_t line, std::uint64_t) { fn(line); });
    }

    [[nodiscard]] std::uint64_t group_capacity() const noexcept {
        return group_capacity_;
    }
    [[nodiscard]] std::size_t group_count() const noexcept {
        return groups_.size();
    }

private:
    // Intrusive doubly-linked node in a pool; nodes never deallocate.
    struct Node {
        std::uint64_t line = 0;
        std::int64_t prev = -1;
        std::int64_t next = -1;
        std::uint32_t group = 0;
    };
    // Each group is an ordered list: head = most recent within the group.
    struct Group {
        std::int64_t head = -1;
        std::int64_t tail = -1;
        std::uint64_t size = 0;
    };

    void unlink(std::int64_t node_index) noexcept;
    void push_front(std::uint32_t group_index, std::int64_t node_index) noexcept;
    /// Detaches the LRU node of group `g` and returns its index.
    std::int64_t pop_tail(std::uint32_t group_index) noexcept;

    std::uint64_t group_capacity_;
    std::vector<Node> nodes_;
    std::vector<std::int64_t> free_nodes_;  ///< pool slots vacated by evict()
    std::vector<Group> groups_;
    FlatMap64 node_of_line_;  ///< line -> index into nodes_
    std::uint64_t line_count_ = 0;
};

}  // namespace spmvcache
