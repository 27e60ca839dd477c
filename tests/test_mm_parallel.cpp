// Chunked Matrix Market parser tests. The oracle is invariance across the
// chunking grid: every success case yields the same CSR bytes at every
// (workers, chunk bytes) point as the one-chunk parse, and every failure
// yields a fixed (code, line) at every point. The literal (code, line)
// pairs were recorded from the earlier serial istream reader, so they pin
// the diagnostics the parser has always given. Tiny chunk sizes force many
// chunks on small inputs, so merge order, line rebasing and boundary
// splitting all get exercised. The suite is TSan-friendly (CI runs it
// under ThreadSanitizer): most grid points fan chunks out on the pool.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sparse/gen/banded.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/matrix_market.hpp"
#include "sync/thread_pool.hpp"
#include "util/fault.hpp"

namespace spmvcache {
namespace {

namespace fs = std::filesystem;

/// One chunking of the entry region (see detail:: in matrix_market.hpp).
struct Grid {
    std::size_t workers;
    std::size_t chunk_bytes;
};

std::vector<Grid> grid() {
    return {{1, 31},    {2, 1},   {2, 64},
            {3, 64},    {4, 256}, {8, 31},
            {default_host_jobs(), 4096},
            {default_host_jobs(), std::size_t{1} << 20}};
}

std::string describe(const Grid& g) {
    return "workers=" + std::to_string(g.workers) +
           " chunk=" + std::to_string(g.chunk_bytes);
}

Result<CsrMatrix> parse_at(const std::string& text, const Grid& g,
                           bool strict, std::size_t max_line_bytes) {
    MmReadOptions options;
    options.strict = strict;
    options.max_line_bytes = max_line_bytes;
    return detail::try_read_matrix_market_chunked(text, options, g.workers,
                                                  g.chunk_bytes);
}

/// The whole entry region as one inline chunk: the reference parse.
Result<CsrMatrix> parse_one_chunk(const std::string& text, bool strict,
                                  std::size_t max_line_bytes) {
    return parse_at(text,
                    Grid{1, std::numeric_limits<std::size_t>::max()},
                    strict, max_line_bytes);
}

void expect_same_bytes(const CsrMatrix& a, const CsrMatrix& b,
                       const std::string& where) {
    ASSERT_EQ(a.rows(), b.rows()) << where;
    ASSERT_EQ(a.cols(), b.cols()) << where;
    ASSERT_EQ(a.nnz(), b.nnz()) << where;
    EXPECT_EQ(std::memcmp(a.rowptr().data(), b.rowptr().data(),
                          a.rowptr_bytes()),
              0)
        << where;
    EXPECT_EQ(std::memcmp(a.colidx().data(), b.colidx().data(),
                          a.colidx_bytes()),
              0)
        << where;
    EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                          static_cast<std::size_t>(a.nnz()) * sizeof(double)),
              0)
        << where;
}

/// Asserts `text` parses, and to the one-chunk parse's bytes at every
/// grid point. Returns the one-chunk matrix for further checks.
CsrMatrix expect_grid_invariant(const std::string& text, bool strict = false) {
    const std::size_t max_line = MmReadOptions{}.max_line_bytes;
    const Result<CsrMatrix> one = parse_one_chunk(text, strict, max_line);
    EXPECT_TRUE(one.ok()) << one.error().render();
    if (!one.ok()) return CsrMatrix();
    for (const Grid& g : grid()) {
        const Result<CsrMatrix> r = parse_at(text, g, strict, max_line);
        EXPECT_TRUE(r.ok()) << describe(g) << ": " << r.error().render();
        if (r.ok()) expect_same_bytes(one.value(), r.value(), describe(g));
    }
    return one.value();
}

/// Asserts `text` fails with (code, line) at every grid point and in the
/// one-chunk parse.
void expect_grid_error(const std::string& text, bool strict, ErrorCode code,
                       std::int64_t line,
                       std::size_t max_line_bytes = MmReadOptions{}
                                                        .max_line_bytes) {
    std::vector<Grid> points = grid();
    points.push_back({1, std::numeric_limits<std::size_t>::max()});
    for (const Grid& g : points) {
        const Result<CsrMatrix> r = parse_at(text, g, strict, max_line_bytes);
        ASSERT_FALSE(r.ok()) << describe(g) << " parsed";
        EXPECT_EQ(r.code(), code) << describe(g) << ": " << r.error().render();
        EXPECT_EQ(r.error().line, line)
            << describe(g) << ": " << r.error().render();
    }
}

std::string to_mtx(const CsrMatrix& m) {
    std::ostringstream out;
    write_matrix_market(out, m);
    return out.str();
}

std::string read_text(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

/// A 60x60 diagonal over 66 entry-region lines (a comment before every
/// tenth entry), declaring `declared` entries, followed by `tail`. Long
/// enough that at the small grid chunk sizes `tail` lands in a later chunk.
std::string diagonal_text(std::int64_t declared, const std::string& tail) {
    std::string text =
        "%%MatrixMarket matrix coordinate real general\n% generated\n60 60 " +
        std::to_string(declared) + "\n";
    for (int i = 1; i <= 60; ++i) {
        if (i % 10 == 0) text += "% comment\n";
        text += std::to_string(i) + " " + std::to_string(i) + " " +
                std::to_string(i) + ".5\n";
    }
    return text + tail;
}

TEST(MmParallel, GeneratedMatricesAreBitIdentical) {
    for (const CsrMatrix& m :
         {gen::stencil_2d_5pt(16, 16), gen::banded(120, 7, 2, 3),
          gen::random_uniform(90, 90, 8, 17),
          gen::random_variable_rows(80, 80, 5.0, 2.0, 9)}) {
        const CsrMatrix parsed = expect_grid_invariant(to_mtx(m));
        ASSERT_EQ(parsed.nnz(), m.nnz());
        EXPECT_EQ(std::memcmp(parsed.rowptr().data(), m.rowptr().data(),
                              m.rowptr_bytes()),
                  0);
        EXPECT_EQ(std::memcmp(parsed.colidx().data(), m.colidx().data(),
                              m.colidx_bytes()),
                  0);
    }
}

TEST(MmParallel, HandlesCommentsBlankLinesAndPattern) {
    expect_grid_invariant(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "% comment between header and size\n"
        "\n"
        "3 3 4\n"
        "% comment between entries\n"
        "1 1\n"
        "2 2\n"
        "\n"
        "3 1\n"
        "3 3\n");
}

TEST(MmParallel, HandlesSymmetricAndSkewMirroring) {
    expect_grid_invariant(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 4\n"
        "1 1 1.5\n"
        "2 1 -2.0\n"
        "3 2 0.25\n"
        "3 3 4.0\n");
    expect_grid_invariant(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "3 3 2\n"
        "2 1 -2.0\n"
        "3 2 0.25\n");
}

TEST(MmParallel, HandlesIntegerFieldAndExponents) {
    expect_grid_invariant(
        "%%MatrixMarket matrix coordinate integer general\n"
        "2 3 3\n"
        "1 1 7\n"
        "1 3 -2\n"
        "2 2 9\n");
    expect_grid_invariant(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 1.25e-3\n"
        "1 2 -7.5E+2\n"
        "2 2 +0.5\n");
}

TEST(MmParallel, LenientDuplicatesSumIdentically) {
    expect_grid_invariant(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 4\n"
        "1 1 1.0\n"
        "1 1 2.0\n"
        "2 2 4.0\n"
        "2 1 8.0\n");
    // The duplicate of entry 7 sits in a later chunk than the original.
    expect_grid_invariant(diagonal_text(61, "7 7 1.0\n"));
}

// ---- Errors: a fixed (code, line) at every grid point ------------------

TEST(MmParallel, MalformedEntryReportsSerialLineNumber) {
    expect_grid_error(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 4\n"
        "1 1 1.0\n"
        "2 2 2.0\n"
        "2 x 3.0\n"
        "3 3 4.0\n",
        false, ErrorCode::ParseError, 5);
}

TEST(MmParallel, OutOfRangeIndexReportsSerialLineNumber) {
    expect_grid_error(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n"
        "1 1 1.0\n"
        "% a comment to shift line numbers\n"
        "2 7 2.0\n"
        "3 3 3.0\n",
        false, ErrorCode::ValidationError, 5);
}

TEST(MmParallel, TruncatedFileReportsSameError) {
    expect_grid_error(
        "%%MatrixMarket matrix coordinate real general\n"
        "4 4 6\n"
        "1 1 1.0\n"
        "2 2 2.0\n",
        false, ErrorCode::ParseError, 4);
}

TEST(MmParallel, MissingValueReportsSameError) {
    expect_grid_error(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n"
        "1 1 1.0\n"
        "2 2\n"
        "3 3 3.0\n",
        false, ErrorCode::ParseError, 4);
}

TEST(MmParallel, StrictRejectsWhatSerialStrictRejects) {
    // Duplicate entry (strict sums are forbidden).
    expect_grid_error(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 1.0\n"
        "1 1 2.0\n"
        "2 2 4.0\n",
        true, ErrorCode::ValidationError, 4);
    // Data after the declared final entry.
    expect_grid_error(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n"
        "2 2 2.0\n"
        "1 2 9.0\n",
        true, ErrorCode::ParseError, 5);
    // Trailing garbage on an entry line.
    expect_grid_error(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0 junk\n"
        "2 2 2.0\n",
        true, ErrorCode::ParseError, 3);
    // Above-diagonal entry in a symmetric file.
    expect_grid_error(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "1 2 1.0\n"
        "3 3 2.0\n",
        true, ErrorCode::ValidationError, 3);
    // Non-finite value.
    expect_grid_error(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 nan\n"
        "2 2 2.0\n",
        true, ErrorCode::ValidationError, 3);
}

TEST(MmParallel, StrictLaterChunkRejectionsKeepLineNumbers) {
    // The merge recovers these lines by re-scanning the chunk.
    expect_grid_error(diagonal_text(61, "7 7 1.0\n"), true,
                      ErrorCode::ValidationError, 70);
    expect_grid_error(diagonal_text(60, "% trailing comment\n\n1 2 3.0\n"),
                      true, ErrorCode::ParseError, 72);
}

TEST(MmParallel, LenientIgnoresDataAfterFinalEntry) {
    expect_grid_invariant(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n"
        "2 2 2.0\n"
        "1 2 9.0\n");
    const CsrMatrix m = expect_grid_invariant(
        diagonal_text(60, "% trailing comment\n\n1 2 3.0\n"));
    EXPECT_EQ(m.nnz(), 60);
}

TEST(MmParallel, HeaderErrorsMatchSerial) {
    expect_grid_error("%%MatrixMarket matrix coordinate complex general\n"
                      "1 1 1\n"
                      "1 1 1.0 0.0\n",
                      false, ErrorCode::UnsupportedError, 1);
    expect_grid_error("not a matrix market file\n", false,
                      ErrorCode::ParseError, 1);
    expect_grid_error("%%MatrixMarket matrix coordinate real general\n"
                      "2 -2 1\n"
                      "1 1 1.0\n",
                      false, ErrorCode::ValidationError, 2);
    expect_grid_error("", false, ErrorCode::ParseError, 1);
}

TEST(MmParallel, FileWithoutTrailingNewlineParses) {
    expect_grid_invariant(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n"
        "2 2 2.0");
}

TEST(MmParallel, OverlongLineMatchesSerial) {
    std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n";
    text += "2 2 2.0" + std::string(100, ' ') + "\n";
    // A 32-byte limit already rejects the 46-byte banner.
    expect_grid_error(text, false, ErrorCode::ParseError, 1, 32);
    expect_grid_error(text, false, ErrorCode::ParseError, 4, 48);
}

/// Every corrupt-corpus file, strict and lenient: the file entry point
/// and every grid point agree on the recorded outcome.
TEST(MmParallel, CorruptCorpusIsGridInvariant) {
    struct Expected {
        const char* file;
        ErrorCode strict_code;
        std::int64_t strict_line;
        ErrorCode lenient_code;  ///< Ok: lenient mode repairs the file
        std::int64_t lenient_line;
    };
    const std::vector<Expected> corpus = {
        {"duplicate_entries.mtx", ErrorCode::ValidationError, 5,
         ErrorCode::Ok, 0},
        {"huge_dims_overflow.mtx", ErrorCode::OverflowError, 2,
         ErrorCode::OverflowError, 2},
        {"negative_dims.mtx", ErrorCode::ValidationError, 3,
         ErrorCode::ValidationError, 3},
        {"nnz_exceeds_cells.mtx", ErrorCode::ValidationError, 2,
         ErrorCode::ValidationError, 2},
        {"non_numeric_value.mtx", ErrorCode::ParseError, 4,
         ErrorCode::ParseError, 4},
        {"out_of_range_index.mtx", ErrorCode::ValidationError, 4,
         ErrorCode::ValidationError, 4},
        {"size_line_garbage.mtx", ErrorCode::ParseError, 2,
         ErrorCode::ParseError, 2},
        {"truncated_entries.mtx", ErrorCode::ParseError, 4,
         ErrorCode::ParseError, 4},
        {"truncated_header.mtx", ErrorCode::ParseError, 2,
         ErrorCode::ParseError, 2},
    };
    const fs::path dir = fs::path(SPMVCACHE_TEST_DATA_DIR) / "corrupt";
    std::size_t files = 0;
    for (const auto& entry : fs::directory_iterator(dir))
        files += entry.path().extension() == ".mtx" ? 1 : 0;
    EXPECT_EQ(files, corpus.size()) << "a corpus file has no expectation";

    for (const Expected& e : corpus) {
        SCOPED_TRACE(e.file);
        const fs::path path = dir / e.file;
        const std::string text = read_text(path);
        for (const bool strict : {true, false}) {
            SCOPED_TRACE(strict ? "strict" : "lenient");
            const ErrorCode code = strict ? e.strict_code : e.lenient_code;
            const std::int64_t line = strict ? e.strict_line : e.lenient_line;
            const Result<CsrMatrix> file = try_read_matrix_market_file(
                path.string(), MmReadOptions{.strict = strict});
            if (code == ErrorCode::Ok) {
                ASSERT_TRUE(file.ok()) << file.error().render();
                expect_same_bytes(expect_grid_invariant(text, strict),
                                  file.value(), "file");
                continue;
            }
            ASSERT_FALSE(file.ok());
            EXPECT_EQ(file.code(), code);
            EXPECT_EQ(file.error().line, line);
            expect_grid_error(text, strict, code, line);
        }
    }
}

/// A per-process temporary directory, removed on scope exit.
struct TempMtxDir {
    fs::path path = fs::path(testing::TempDir()) /
                    ("spmv_mm_par_" + std::to_string(::getpid()));
    TempMtxDir() { fs::create_directories(path); }
    ~TempMtxDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

TEST(MmParallel, FileReadMatchesTextParse) {
    const TempMtxDir dir;
    const std::string text = to_mtx(gen::stencil_2d_5pt(12, 12));
    const std::string path = (dir.path / "m.mtx").string();
    std::ofstream(path, std::ios::binary) << text;

    const Result<CsrMatrix> from_text = try_read_matrix_market(text);
    const Result<CsrMatrix> from_file = try_read_matrix_market_file(path);
    ASSERT_TRUE(from_text.ok()) << from_text.error().render();
    ASSERT_TRUE(from_file.ok()) << from_file.error().render();
    expect_same_bytes(from_text.value(), from_file.value(), "file");

    const Result<CsrMatrix> missing =
        try_read_matrix_market_file((dir.path / "no.mtx").string());
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.code(), ErrorCode::ResourceError);
}

TEST(MmParallel, FifoReadMatchesTextParse) {
    const TempMtxDir dir;
    // A FIFO has no size and cannot seek: the reader must go to EOF.
    const std::string text = to_mtx(gen::banded(300, 9, 2, 5));
    const std::string path = (dir.path / "m.fifo").string();
    ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
    std::thread writer([&] { std::ofstream(path, std::ios::binary) << text; });
    const Result<CsrMatrix> from_fifo = try_read_matrix_market_file(path);
    writer.join();

    const Result<CsrMatrix> from_text = try_read_matrix_market(text);
    ASSERT_TRUE(from_text.ok()) << from_text.error().render();
    ASSERT_TRUE(from_fifo.ok()) << from_fifo.error().render();
    expect_same_bytes(from_text.value(), from_fifo.value(), "fifo");
}

TEST(MmParallel, ChunkFaultInjectionSurfacesTypedError) {
    const std::string text = to_mtx(gen::stencil_2d_5pt(12, 12));
    {
        fault::ScopedFault f("mm.chunk");
        const Result<CsrMatrix> r =
            detail::try_read_matrix_market_chunked(text, {}, 4, 64);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().code, ErrorCode::FaultInjected);
    }
    {
        // The single inline chunk of a small file fires the point too.
        fault::ScopedFault f("mm.chunk");
        EXPECT_EQ(try_read_matrix_market(text).code(),
                  ErrorCode::FaultInjected);
    }
    EXPECT_TRUE(detail::try_read_matrix_market_chunked(text, {}, 4, 64).ok());
}

}  // namespace
}  // namespace spmvcache
