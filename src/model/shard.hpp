// Host-side shard scheduling shared by methods (A) and (B).
//
// The model is sharded by L2 segment: every per-segment stack engine (and
// every per-core L1 engine, since cores do not move between segments)
// consumes a disjoint, order-preserved slice of the interleaved trace
// (generate_spmv_trace_segment), so shards are fully independent and can
// run concurrently on a ThreadPool without changing any prediction.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "sync/thread_pool.hpp"

namespace spmvcache::detail {

/// Expected-lines hint for each per-core L1 engine. Purely a presizing
/// hint (see OlkenEngine): it never changes a distance.
inline constexpr std::size_t kL1EngineLinesHint = 4096;

/// Resolves ModelOptions::jobs: 0 means one worker per hardware thread.
[[nodiscard]] inline std::int64_t resolve_model_jobs(std::int64_t jobs) {
    return jobs >= 1 ? jobs
                     : static_cast<std::int64_t>(default_host_jobs());
}

/// Runs fn(shard) for every shard in [0, shards), concurrently on up to
/// `jobs` pool workers (serial when either is 1 — no pool, no threads).
/// Exceptions from fn propagate to the caller in both modes.
inline void for_each_shard(std::int64_t shards, std::int64_t jobs,
                           const std::function<void(std::int64_t)>& fn) {
    if (jobs <= 1 || shards <= 1) {
        for (std::int64_t s = 0; s < shards; ++s) fn(s);
        return;
    }
    ThreadPool pool(static_cast<std::size_t>(std::min(jobs, shards)));
    pool.parallel_for(static_cast<std::size_t>(shards),
                      [&fn](std::size_t s) {
                          fn(static_cast<std::int64_t>(s));
                      });
}

}  // namespace spmvcache::detail
