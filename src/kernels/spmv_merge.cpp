#include "kernels/spmv_merge.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace spmvcache {

template <class Idx>
MergeCoordinate merge_path_search(const BasicCsrView<Idx>& a,
                                  std::int64_t diagonal) {
    SPMV_EXPECTS(diagonal >= 0 && diagonal <= a.rows() + a.nnz());
    const auto rowptr = a.rowptr();
    // Find the split point (r, i) with r + i == diagonal such that
    // rowptr[r] >= i for all merged prefixes: binary search over r.
    std::int64_t lo = std::max<std::int64_t>(0, diagonal - a.nnz());
    std::int64_t hi = std::min(diagonal, a.rows());
    while (lo < hi) {
        const std::int64_t mid = (lo + hi) / 2;
        // Row-end marker rowptr[mid+1] competes with nonzero index
        // (diagonal - mid - 1) on the merge path.
        if (static_cast<std::int64_t>(
                rowptr[static_cast<std::size_t>(mid) + 1]) <=
            diagonal - mid - 1)
            lo = mid + 1;
        else
            hi = mid;
    }
    return MergeCoordinate{lo, diagonal - lo};
}

template MergeCoordinate merge_path_search<Idx32>(const BasicCsrView<Idx32>&,
                                                  std::int64_t);
template MergeCoordinate merge_path_search<Idx64>(const BasicCsrView<Idx64>&,
                                                  std::int64_t);

}  // namespace spmvcache
