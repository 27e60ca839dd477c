#include "reuse/olken.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace spmvcache {

namespace {
constexpr std::size_t kInitialSlots = 1 << 16;
constexpr std::size_t kWordBits = 64;

/// Bits 0..(time mod 64) of time's word.
constexpr std::uint64_t through_mask(std::uint64_t time) noexcept {
    return ~std::uint64_t{0} >> (kWordBits - 1 - time % kWordBits);
}

std::int32_t marks_in(std::uint64_t word) noexcept {
    return static_cast<std::int32_t>(std::popcount(word));
}
}  // namespace

OlkenEngine::OlkenEngine(std::size_t expected_lines)
    : last_access_(expected_lines) {
    std::size_t slots = kInitialSlots;
    while (slots < expected_lines * 2) slots *= 2;
    reset_index(slots);
}

void OlkenEngine::fenwick_add(std::size_t word, std::int32_t delta) noexcept {
    for (std::size_t i = word + 1; i < tree_.size(); i += i & (~i + 1))
        tree_[i] += delta;
}

std::uint64_t OlkenEngine::word_marks_through(
    std::uint64_t time) const noexcept {
    return static_cast<std::uint64_t>(std::popcount(
        bits_[static_cast<std::size_t>(time / kWordBits)] & through_mask(time)));
}

std::uint64_t OlkenEngine::marks_through(std::uint64_t time) const noexcept {
    std::uint64_t sum = word_marks_through(time);
    for (std::size_t i = static_cast<std::size_t>(time / kWordBits); i > 0;
         i -= i & (~i + 1))
        sum += static_cast<std::uint64_t>(tree_[i]);
    return sum;
}

void OlkenEngine::unmark(std::uint64_t time) noexcept {
    const std::size_t word = static_cast<std::size_t>(time / kWordBits);
    bits_[word] &= ~(std::uint64_t{1} << (time % kWordBits));
    if (word < now_ / kWordBits) fenwick_add(word, -1);
}

std::uint64_t OlkenEngine::access(std::uint64_t line) {
    // Disarmed this is one relaxed load; armed it lets chaos tests abort a
    // model run mid-pass to exercise the batch runner's stage isolation.
    fault::maybe_throw("reuse.access");
    if (now_ == slots_) compact();

    std::uint64_t distance = kInfiniteDistance;
    bool inserted = false;
    std::uint64_t* prev = last_access_.find_or_insert(line, inserted);
    if (!inserted) {
        // Lines accessed after *prev are exactly the distinct lines between
        // the two accesses; the line itself is marked at *prev, so
        // alive - marks_through(prev) excludes it.
        distance = alive_ - marks_through(*prev);
        unmark(*prev);
    } else {
        ++alive_;
    }
    *prev = static_cast<std::uint64_t>(now_);
    bits_[now_ / kWordBits] |= std::uint64_t{1} << (now_ % kWordBits);
    ++now_;
    if (now_ % kWordBits == 0) {
        const std::size_t full = now_ / kWordBits - 1;
        fenwick_add(full, marks_in(bits_[full]));
    }
    return distance;
}

void OlkenEngine::access_batch(const std::uint64_t* lines,
                               std::uint64_t* dists, std::size_t n) {
    const std::size_t primed = std::min(kPrefetchAhead, n);
    for (std::size_t i = 0; i < primed; ++i) last_access_.prefetch(lines[i]);
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n)
            last_access_.prefetch(lines[i + kPrefetchAhead]);
        dists[i] = access(lines[i]);
    }
}

bool OlkenEngine::evict(std::uint64_t line) {
    const std::uint64_t* prev = last_access_.find(line);
    if (!prev) return false;
    unmark(*prev);
    last_access_.erase(line);
    --alive_;
    return true;
}

void OlkenEngine::wrap_distances(const std::uint64_t* lines,
                                 std::uint64_t* dists, std::size_t n) const {
    SPMV_EXPECTS(n == distinct_lines());
    // Ranks of the earlier first touches' last accesses: one bit per rank
    // under a word-level Fenwick tree, as in the timestamp index.
    const std::size_t words = (n + kWordBits - 1) / kWordBits;
    std::vector<std::uint64_t> seen(words, 0);
    std::vector<std::uint32_t> tree(words + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n)
            last_access_.prefetch(lines[i + kPrefetchAhead]);
        const std::uint64_t* last = last_access_.find(lines[i]);
        SPMV_EXPECTS(last != nullptr);
        const std::uint64_t rank = marks_through(*last) - 1;
        const auto word = static_cast<std::size_t>(rank / kWordBits);
        const std::uint64_t bit = std::uint64_t{1} << (rank % kWordBits);
        std::uint64_t earlier = static_cast<std::uint64_t>(
            std::popcount(seen[word] & (bit - 1)));
        for (std::size_t k = word; k > 0; k -= k & (~k + 1)) earlier += tree[k];
        dists[i] = (n - 1 - rank) + earlier;
        seen[word] |= bit;
        for (std::size_t k = word + 1; k <= words; k += k & (~k + 1)) ++tree[k];
    }
}

void OlkenEngine::reset_index(std::size_t slots) {
    // Marks 0..alive-1: full words of ones, then now_'s partial word.
    slots_ = slots;
    now_ = static_cast<std::size_t>(alive_);
    const std::size_t words = slots_ / kWordBits;
    const std::size_t full = now_ / kWordBits;
    bits_.assign(words, 0);
    std::fill_n(bits_.begin(), full, ~std::uint64_t{0});
    if (now_ % kWordBits != 0)
        bits_[full] = (std::uint64_t{1} << (now_ % kWordBits)) - 1;
    // Node i covers words [i - lowbit(i), i); of those only the full
    // words below now_'s word carry marks in the tree.
    tree_.assign(words + 1, 0);
    for (std::size_t i = 1; i <= words; ++i) {
        const std::size_t lo = i - (i & (~i + 1));
        tree_[i] = static_cast<std::int32_t>(
            kWordBits * (std::min(i, full) - std::min(lo, full)));
    }
}

void OlkenEngine::compact() {
    // Renumber each alive timestamp to its rank minus one, preserving
    // order. tree_[w] is reused as the count of marks in words [0, w).
    std::int32_t below = 0;
    for (std::size_t w = 0; w < bits_.size(); ++w) {
        tree_[w] = below;
        below += marks_in(bits_[w]);
    }
    last_access_.for_each_value([&](std::uint64_t& time) {
        const auto below_word = static_cast<std::uint64_t>(
            tree_[static_cast<std::size_t>(time / kWordBits)]);
        time = below_word + word_marks_through(time) - 1;
    });

    // Grow if more than half the slot space is alive.
    std::size_t slots = slots_;
    while (alive_ * 2 > slots) slots *= 2;
    reset_index(slots);
}

void OlkenEngine::clear() {
    last_access_.clear();
    alive_ = 0;
    reset_index(kInitialSlots);
}

}  // namespace spmvcache
