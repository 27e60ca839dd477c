// Reuse-distance engines (§2.2 of the paper): shared constants.
//
// Given a stream of cache-line numbers, an engine returns for every access
// the number of *distinct* lines referenced since the previous access to
// the same line (kInfinite for first-ever accesses). With Eq. (1) of the
// paper, an access misses in a fully associative LRU cache of n lines iff
// its reuse distance is >= n.
//
// Three plain classes share one duck-typed contract — access(line),
// clear(), distinct_lines(); the fast two add access_batch(lines, dists,
// n), bit-identical to n in-order access() calls:
//  * NaiveStackEngine — O(distance) list walk; the executable definition,
//    used to cross-check the others in tests.
//  * OlkenEngine — exact, O(log n) per access: an alive bit per access
//    time under a Fenwick tree over the bitset's 64-bit words, compacted
//    by in-place rank renumbering; the workhorse used by the model.
//  * KimEngine — the grouped-stack scheme of Kim et al. [SIGMETRICS'91]
//    that the paper uses: approximate distances at group granularity with
//    per-access cost independent of the locality of the trace.
// The model's shard bodies are templated on the concrete engine, so no
// access pays a virtual dispatch.
#pragma once

#include <cstdint>

namespace spmvcache {

/// Reuse distance reported for a line's first-ever access.
inline constexpr std::uint64_t kInfiniteDistance = ~std::uint64_t{0};

/// Read prefetch hint; a no-op (and harmless on any address) where the
/// builtin is unavailable. The engines' access_batch pipelines use it to
/// overlap the dependent-load misses of upcoming accesses.
inline void prefetch_ro(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
}

}  // namespace spmvcache
