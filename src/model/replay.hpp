// Segment replay shared by methods (A) and (B).
//
// Each model shard runs its segment's slice of the interleaved trace
// through its engines twice (warm-up + counted pass), always on one batch
// path: the demand references are gathered into chunks of kReplayBatch,
// each chunk feeds the engines' access_batch, and the distances are
// recorded. Only the source of a pass differs. When the segment fits its
// share of the ModelOptions::trace_buffer_bytes budget, the shard derives
// it once into a packed buffer (trace/packed_trace.hpp) and both passes
// scan that buffer. Otherwise (budget of 0, oversized segment, unpackable
// reference, allocation failure, armed `trace.pack` fault) each pass
// re-derives the trace in chunks. Both sources hand the same references
// to the same chunk code, so predictions are bit-identical.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sparse/csr_view.hpp"
#include "trace/layout.hpp"
#include "trace/packed_trace.hpp"
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
/// (slower, never wrong), mirroring how a packing failure degrades to
/// streaming. Callers detect degradation via filter.exact().
[[nodiscard]] SampleFilter resolve_sample_filter(double sample_rate);

/// Resolves ModelOptions::trace_buffer_bytes: kTraceBufferAuto becomes
/// 1/8 of physical RAM clamped to [64 MiB, 8 GiB] (256 MiB when the host
/// cannot report its memory); any other value passes through.
[[nodiscard]] std::uint64_t resolve_trace_buffer_bytes(
    std::uint64_t requested) noexcept;

/// Packs segment `segment`'s trace iff its expected packed size fits
/// `budget_bytes` (8 bytes per reference; under sampling only ~R of the
/// `demand_refs` survive the filter, so the budget check scales
/// accordingly and larger segments stay packable). Empty optional = every
/// pass re-derives the trace (over budget, packing fault, allocation
/// failure, or a reference outside the packed encoding).
template <class Idx>
[[nodiscard]] std::optional<std::vector<std::uint64_t>>
pack_segment_within_budget(const BasicCsrView<Idx>& m,
                           const SpmvLayout& layout, const TraceConfig& cfg,
                           std::int64_t cores_per_numa, std::int64_t segment,
                           std::uint64_t demand_refs,
                           std::uint64_t budget_bytes,
                           const SampleFilter& filter = SampleFilter{});

extern template std::optional<std::vector<std::uint64_t>>
pack_segment_within_budget<Idx32>(const BasicCsrView<Idx32>&,
                                  const SpmvLayout&, const TraceConfig&,
                                  std::int64_t, std::int64_t, std::uint64_t,
                                  std::uint64_t, const SampleFilter&);
extern template std::optional<std::vector<std::uint64_t>>
pack_segment_within_budget<Idx64>(const BasicCsrView<Idx64>&,
                                  const SpmvLayout&, const TraceConfig&,
                                  std::int64_t, std::int64_t, std::uint64_t,
                                  std::uint64_t, const SampleFilter&);

// Owning-matrix convenience (deduction cannot see through the implicit
// matrix -> view conversion).
template <class Idx>
[[nodiscard]] std::optional<std::vector<std::uint64_t>>
pack_segment_within_budget(const BasicCsrMatrix<Idx>& m,
                           const SpmvLayout& layout, const TraceConfig& cfg,
                           std::int64_t cores_per_numa, std::int64_t segment,
                           std::uint64_t demand_refs,
                           std::uint64_t budget_bytes,
                           const SampleFilter& filter = SampleFilter{}) {
    return pack_segment_within_budget(BasicCsrView<Idx>(m), layout, cfg,
                                      cores_per_numa, segment, demand_refs,
                                      budget_bytes, filter);
}

/// One pass over segment `segment`'s demand references in trace order:
/// gather(line, object, thread) per reference the filter keeps, then
/// flush() after every chunk of at most kReplayBatch references. Scans
/// `packed` when it holds the segment's buffer (already filtered at
/// packing time); otherwise re-derives the segment trace and applies
/// `filter` here.
template <class Idx, class Gather, class Flush>
void replay_segment_pass(
    const std::optional<std::vector<std::uint64_t>>& packed,
    const BasicCsrView<Idx>& m, const SpmvLayout& layout,
    const TraceConfig& cfg, std::int64_t cores_per_numa,
    std::int64_t segment, const SampleFilter& filter, Gather&& gather,
    Flush&& flush) {
    if (packed.has_value()) {
        const std::vector<std::uint64_t>& buffer = *packed;
        for (std::size_t begin = 0; begin < buffer.size();
             begin += kReplayBatch) {
            const std::size_t end =
                std::min(buffer.size(), begin + kReplayBatch);
            for (std::size_t i = begin; i < end; ++i) {
                const std::uint64_t word = buffer[i];
                if (packed_is_prefetch(word)) continue;  // demand only
                gather(packed_line(word), packed_object(word),
                       packed_thread(word));
            }
            flush();
        }
        return;
    }
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
