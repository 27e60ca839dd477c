// Matrix Market (.mtx) I/O, so real SuiteSparse matrices — the paper's data
// set — can be dropped into any bench via --mm when available.
//
// Supports the coordinate format with real/integer/pattern fields and
// general/symmetric/skew-symmetric symmetry. Pattern entries get value 1.0.
//
// The parser is hardened for unattended batch sweeps over hundreds of
// downloaded matrices: every failure is a typed Error (util/status.hpp)
// carrying the 1-based input line, dimension and nnz arithmetic is
// overflow-checked, line length is bounded, and a strict mode rejects
// trailing garbage, duplicate entries and upper-triangle entries in
// symmetric files instead of silently repairing them.
//
// The parser is chunked: the header (banner, comments, size line) is read
// serially, the entry region is split at newlines into ~1 MiB chunks (at
// most four per host worker) parsed inline (one chunk) or on
// sync/thread_pool, and a merge in file order assembles the matrix. The
// result — CSR bytes, or the first typed error and its line — is the same
// for every chunking.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "sparse/any_csr.hpp"
#include "sparse/csr.hpp"
#include "util/status.hpp"

namespace spmvcache {

/// Parser knobs; default-constructed == lenient (historical behaviour).
struct MmReadOptions {
    /// Strict mode rejects what lenient mode repairs: trailing tokens after
    /// the size line or an entry, duplicate (row, col) entries (lenient
    /// sums them), and entries above the diagonal in symmetric files
    /// (lenient mirrors them anyway).
    bool strict = false;
    /// Any input line longer than this is a ParseError; guards the parser
    /// against pathological single-line files.
    std::size_t max_line_bytes = std::size_t{1} << 20;
    /// Target CSR index width for the `_any` entry points: Auto narrows
    /// whenever the parsed shape fits the W32 layout and widens otherwise;
    /// a forced W32 rejects oversized shapes at the size line, before any
    /// entry is read. The non-`_any` entry points ignore this and always
    /// force W32 (their return type is the narrow CsrMatrix).
    IndexWidthChoice index_width = default_index_width_choice();
};

/// Parses Matrix Market text held in memory. Errors carry the 1-based
/// line number of the offending input line.
/// Fault points: "mm.header", "mm.size_line", "mm.chunk" (once per chunk).
[[nodiscard]] Result<CsrMatrix> try_read_matrix_market(
    std::string_view text, const MmReadOptions& options = {});

/// Reads a .mtx file (regular file, pipe or FIFO); the error chain names
/// the file. Fault points: "mm.open" plus those of the text parse.
[[nodiscard]] Result<CsrMatrix> try_read_matrix_market_file(
    const std::string& path, const MmReadOptions& options = {});

/// Width-aware parse: honours options.index_width and materializes the
/// CSR arrays directly at the resolved width (no widen-then-narrow pass).
[[nodiscard]] Result<AnyCsrMatrix> try_read_matrix_market_any(
    std::string_view text, const MmReadOptions& options = {});

/// Width-aware file read; the error chain names the file.
[[nodiscard]] Result<AnyCsrMatrix> try_read_matrix_market_any_file(
    const std::string& path, const MmReadOptions& options = {});

/// Legacy throwing wrappers: throw StatusError (a std::runtime_error) on
/// unreadable, malformed or unsupported input (complex field, array).
[[nodiscard]] CsrMatrix read_matrix_market(std::string_view text);
[[nodiscard]] CsrMatrix read_matrix_market_file(const std::string& path);

/// Writes `m` in coordinate/real/general format.
void write_matrix_market(std::ostream& out, const CsrMatrix& m);

/// Writes `m` to a .mtx file. Throws StatusError if unwritable.
void write_matrix_market_file(const std::string& path, const CsrMatrix& m);

namespace detail {

/// Test seam: try_read_matrix_market on a fixed grid, not the one derived
/// from the input and host: ceil(entry bytes / chunk_bytes) chunks clamped
/// to [1, 4 * workers], run on min(workers, chunks) threads (one inline).
[[nodiscard]] Result<CsrMatrix> try_read_matrix_market_chunked(
    std::string_view text, const MmReadOptions& options,
    std::size_t workers, std::size_t chunk_bytes);

}  // namespace detail

}  // namespace spmvcache
