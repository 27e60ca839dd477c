// Segment replay shared by methods (A) and (B).
//
// The paper prices the steady-state iteration: the misses of a counted
// SpMV iteration that follows a warm-up iteration over the same trace.
// Each model shard derives its segment's slice of the interleaved trace
// once, in chunks of kReplayBatch demand references, and feeds every
// chunk to its engines' access_batch (one warm-up pass). The counted pass
// is not run: it replays the same stream, so each reference whose
// previous access lies in the same pass gets the same distance again, and
// only the first touch of each line differs — its warm-up distance is ∞,
// its counted distance the wrap-around distance that
// OlkenEngine::wrap_distances derives from the end of the pass (DESIGN.md
// §10.4). EngineFeed records the finite distances as they arrive, keeps
// the first touches, and records their wrap-around distances once the
// pass is over. The counters are histograms, so the order of records does
// not matter and the totals equal those of a two-pass replay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "reuse/engine.hpp"
#include "sparse/csr_view.hpp"
#include "trace/layout.hpp"
#include "trace/sample.hpp"
#include "trace/spmv_trace.hpp"

namespace spmvcache::detail {

/// References the engines consume per access_batch call. Large enough to
/// amortize the gather/scatter bookkeeping and keep the prefetch pipeline
/// full, small enough that the scratch arrays stay L2-resident.
inline constexpr std::size_t kReplayBatch = 1024;

/// Resolves ModelOptions::sample_rate into the filter every shard of the
/// run shares. R = 1 yields the exact filter; so does an armed
/// `reuse.sample` fault — sampling failure degrades to exact computation
/// (slower, never wrong). Callers detect degradation via filter.exact().
[[nodiscard]] SampleFilter resolve_sample_filter(double sample_rate);

/// One engine and what a shard's replay feeds it: the current chunk's
/// lines with their x-vector flags, and the first touches of the pass so
/// far. flush() hands sink(distance, is_x) every finite distance of the
/// chunk; finish() hands it the counted-pass distance of every first
/// touch. Together they see exactly the counted pass's distances.
template <class Engine>
class EngineFeed {
public:
    explicit EngineFeed(Engine engine) : engine_(std::move(engine)) {}

    void add(std::uint64_t line, bool is_x) {
        lines_.push_back(line);
        is_x_.push_back(is_x ? 1 : 0);
    }

    /// References added since the last flush.
    [[nodiscard]] std::size_t pending() const noexcept {
        return lines_.size();
    }

    /// Runs the chunk through access_batch and empties it.
    template <class Sink>
    void flush(Sink&& sink) {
        dists_.resize(lines_.size());
        engine_.access_batch(lines_.data(), dists_.data(), lines_.size());
        for (std::size_t i = 0; i < lines_.size(); ++i) {
            if (dists_[i] == kInfiniteDistance) {
                first_lines_.push_back(lines_[i]);
                first_is_x_.push_back(is_x_[i]);
            } else {
                sink(dists_[i], is_x_[i] != 0);
            }
        }
        lines_.clear();
        is_x_.clear();
    }

    /// After the last flush: records the first touches' wrap-around
    /// distances.
    template <class Sink>
    void finish(Sink&& sink) {
        dists_.resize(first_lines_.size());
        engine_.wrap_distances(first_lines_.data(), dists_.data(),
                               first_lines_.size());
        for (std::size_t i = 0; i < first_lines_.size(); ++i)
            sink(dists_[i], first_is_x_[i] != 0);
    }

private:
    Engine engine_;
    std::vector<std::uint64_t> lines_, dists_, first_lines_;
    std::vector<unsigned char> is_x_, first_is_x_;
};

/// One pass over segment `segment`'s demand references in trace order:
/// gather(line, object, thread) per reference the filter keeps, then
/// flush() after every chunk of at most kReplayBatch references.
template <class Idx, class Gather, class Flush>
void replay_segment_pass(const BasicCsrView<Idx>& m, const SpmvLayout& layout,
                         const TraceConfig& cfg, std::int64_t cores_per_numa,
                         std::int64_t segment, const SampleFilter& filter,
                         Gather&& gather, Flush&& flush) {
    std::size_t pending = 0;
    generate_spmv_trace_segment(
        m, layout, cfg, cores_per_numa, segment, [&](const MemRef& ref) {
            if (ref.is_prefetch || !filter.keep(ref.line)) return;
            gather(ref.line, ref.object, ref.thread);
            if (++pending == kReplayBatch) {
                flush();
                pending = 0;
            }
        });
    if (pending > 0) flush();
}

}  // namespace spmvcache::detail
