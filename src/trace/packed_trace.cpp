// Kept for the repository benchmark only; see packed_trace.hpp.
#include "trace/packed_trace.hpp"

#include <new>
#include <string>

#include "util/fault.hpp"

namespace spmvcache {

template <class Idx>
[[nodiscard]] Result<std::vector<std::uint64_t>> try_pack_spmv_trace_segment(
    const BasicCsrView<Idx>& m, const SpmvLayout& layout,
    const TraceConfig& cfg, std::int64_t cores_per_numa,
    std::int64_t segment, const SampleFilter& filter) {
    SPMV_RETURN_IF_ERROR(fault::maybe_fail("trace.pack"));

    // Demand-reference count of this segment; exact when no software
    // prefetch hints are configured, a lower-bound reserve otherwise.
    // Under sampling only ~R·expected references survive the filter; the
    // reserve is an estimate with headroom and the vector grows past it
    // if an unlucky hash subset runs dense.
    const auto lengths = spmv_segment_lengths(m, cfg, cores_per_numa);
    const std::uint64_t expected =
        lengths[static_cast<std::size_t>(segment)];
    const std::uint64_t reserve_hint =
        filter.exact()
            ? expected
            : static_cast<std::uint64_t>(
                  static_cast<double>(expected) * filter.rate() * 1.25) +
                  1024;

    std::vector<std::uint64_t> packed;
    bool unpackable = false;
    MemRef bad{};
    try {
        packed.reserve(static_cast<std::size_t>(reserve_hint));
        generate_spmv_trace_segment(
            m, layout, cfg, cores_per_numa, segment, [&](const MemRef& ref) {
                if (!filter.keep(ref.line)) return;  // SHARDS pre-filter
                if (!memref_packable(ref)) {
                    if (!unpackable) bad = ref;
                    unpackable = true;
                    return;
                }
                packed.push_back(pack_memref(ref));
            });
    } catch (const std::bad_alloc&) {
        return Error(ErrorCode::ResourceError,
                     "allocation failed packing trace segment " +
                         std::to_string(segment) + " (" +
                         std::to_string(expected) + " references)");
    }
    if (unpackable)
        return Error(ErrorCode::ValidationError,
                     "trace reference does not fit the packed encoding "
                     "(line " +
                         std::to_string(bad.line) + ", thread " +
                         std::to_string(bad.thread) + ")");
    return packed;
}

template Result<std::vector<std::uint64_t>>
try_pack_spmv_trace_segment<Idx32>(const BasicCsrView<Idx32>&,
                                   const SpmvLayout&, const TraceConfig&,
                                   std::int64_t, std::int64_t,
                                   const SampleFilter&);
template Result<std::vector<std::uint64_t>>
try_pack_spmv_trace_segment<Idx64>(const BasicCsrView<Idx64>&,
                                   const SpmvLayout&, const TraceConfig&,
                                   std::int64_t, std::int64_t,
                                   const SampleFilter&);

}  // namespace spmvcache
