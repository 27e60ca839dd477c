// Tests for the executable SpMV kernels and the CG solver.
#include <gtest/gtest.h>

#include <vector>

#include "kernels/cg.hpp"
#include "kernels/spmv.hpp"
#include "kernels/spmv_merge.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/stencil.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace spmvcache {
namespace {

std::vector<double> dense_spmv(const CsrMatrix& a,
                               const std::vector<double>& x,
                               const std::vector<double>& y0) {
    const auto dense = to_dense(a);
    std::vector<double> y = y0;
    for (std::int64_t r = 0; r < a.rows(); ++r)
        for (std::int64_t c = 0; c < a.cols(); ++c)
            y[static_cast<std::size_t>(r)] +=
                dense[static_cast<std::size_t>(r * a.cols() + c)] *
                x[static_cast<std::size_t>(c)];
    return y;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<double> v(n);
    for (auto& e : v) e = rng.uniform(-1.0, 1.0);
    return v;
}

TEST(Spmv, MatchesDenseReference) {
    const CsrMatrix a = gen::random_uniform(40, 30, 7, 5);
    const auto x = random_vector(30, 1);
    const auto y0 = random_vector(40, 2);
    auto y = y0;
    spmv_csr(a, x, y);
    const auto expected = dense_spmv(a, x, y0);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y[i], expected[i], 1e-12) << i;
}

TEST(Spmv, AccumulatesIntoY) {
    // y <- y + A x twice equals y + 2 A x.
    const CsrMatrix a = gen::stencil_2d_5pt(8, 8);
    const auto x = random_vector(64, 3);
    std::vector<double> y(64, 0.0);
    spmv_csr(a, x, y);
    const auto once = y;
    spmv_csr(a, x, y);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y[i], 2.0 * once[i], 1e-12);
}

TEST(Spmv, ParallelMatchesSequential) {
    const CsrMatrix a = gen::random_uniform(500, 400, 9, 6);
    const auto x = random_vector(400, 4);
    auto y_seq = random_vector(500, 5);
    auto y_par = y_seq;
    spmv_csr(a, x, y_seq);
    for (const std::int64_t threads : {1, 3, 8}) {
        auto y = y_par;
        const RowPartition partition(a, threads,
                                     PartitionPolicy::BalancedRows);
        spmv_csr_parallel(a, x, y, partition);
        for (std::size_t i = 0; i < y.size(); ++i)
            EXPECT_DOUBLE_EQ(y[i], y_seq[i]) << "threads " << threads;
    }
}

TEST(Spmv, RejectsSizeMismatch) {
    const CsrMatrix a = gen::stencil_2d_5pt(4, 4);
    std::vector<double> x(15), y(16);
    EXPECT_THROW(spmv_csr(a, x, y), ContractViolation);
}

TEST(MergePath, SearchEndpoints) {
    const CsrMatrix a = gen::random_uniform(10, 10, 3, 7);
    const auto start = merge_path_search(a, 0);
    EXPECT_EQ(start.row, 0);
    EXPECT_EQ(start.nonzero, 0);
    const auto end = merge_path_search(a, a.rows() + a.nnz());
    EXPECT_EQ(end.row, a.rows());
    EXPECT_EQ(end.nonzero, a.nnz());
}

TEST(MergePath, CoordinatesAreMonotone) {
    const CsrMatrix a = gen::random_uniform(64, 64, 5, 8);
    MergeCoordinate prev = merge_path_search(a, 0);
    for (std::int64_t d = 1; d <= a.rows() + a.nnz(); ++d) {
        const auto cur = merge_path_search(a, d);
        EXPECT_GE(cur.row, prev.row);
        EXPECT_GE(cur.nonzero, prev.nonzero);
        EXPECT_EQ(cur.row + cur.nonzero, d);
        prev = cur;
    }
}

TEST(Cg, SolvesLaplacian) {
    const CsrMatrix a = gen::stencil_2d_5pt(16, 16);
    // 5-point Laplacian with diagonal 4 is SPD on the grid interior; use
    // b = A * ones so the exact solution is ones.
    std::vector<double> ones(256, 1.0), b(256, 0.0);
    spmv_csr_overwrite(a, ones, b);
    std::vector<double> x(256, 0.0);
    const auto result = conjugate_gradient(a, b, x, 1e-10, 2000);
    EXPECT_TRUE(result.converged);
    for (const double v : x) EXPECT_NEAR(v, 1.0, 1e-6);
}

TEST(Cg, ZeroRhsConvergesImmediately) {
    const CsrMatrix a = gen::stencil_2d_5pt(4, 4);
    std::vector<double> b(16, 0.0), x(16, 0.0);
    const auto result = conjugate_gradient(a, b, x);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.iterations, 0);
}

TEST(Cg, ReportsNonConvergenceWithinBudget) {
    const CsrMatrix a = gen::stencil_2d_5pt(32, 32);
    std::vector<double> b(1024, 1.0), x(1024, 0.0);
    const auto result = conjugate_gradient(a, b, x, 1e-14, 2);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.iterations, 2);
}

}  // namespace
}  // namespace spmvcache
