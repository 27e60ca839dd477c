#include "model/replay.hpp"

#include "util/fault.hpp"

namespace spmvcache::detail {

SampleFilter resolve_sample_filter(double sample_rate) {
    if (sample_rate >= 1.0) return SampleFilter{};
    // Armed `reuse.sample` degrades the run to exact computation: slower,
    // never wrong.
    if (fault::should_fail("reuse.sample")) return SampleFilter{};
    return SampleFilter(sample_rate);
}

}  // namespace spmvcache::detail
