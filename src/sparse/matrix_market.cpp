#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "sparse/coo.hpp"
#include "sync/thread_pool.hpp"
#include "util/checked.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/format.hpp"

namespace spmvcache {

namespace {

/// Banner facts that change entry-line interpretation.
struct MmHeader {
    bool pattern = false, symmetric = false, skew = false;
};

/// The size line: declared dimensions and stored (file) nnz.
struct MmSize {
    std::int64_t rows = 0, cols = 0, nnz = 0;
};

/// One validated entry line, 1-based indices as written in the file.
struct MmEntry {
    std::int64_t row = 0, col = 0;
    double value = 1.0;
};

const char* skip_ws(const char* p, const char* end) {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
    return p;
}

bool rest_is_blank(const char* p, const char* end) {
    return skip_ws(p, end) == end;
}

/// Parses one integer or double token; from_chars rejects a leading '+'.
template <class T>
bool parse_number(const char*& p, const char* end, T& out) {
    p = skip_ws(p, end);
    if (p < end && *p == '+') ++p;
    const auto [ptr, ec] = std::from_chars(p, end, out);
    if (ec != std::errc{} || ptr == p) return false;
    p = ptr;
    return true;
}

bool is_comment_or_blank(std::string_view line) {
    const char* p = skip_ws(line.data(), line.data() + line.size());
    return p == line.data() + line.size() || *p == '%';
}

[[nodiscard]] Result<MmHeader> parse_banner(std::string_view line,
                                            std::int64_t line_no) {
    std::istringstream is{std::string(line)};
    std::string banner, object, format, field, symmetry;
    is >> banner >> object >> format >> field >> symmetry;
    if (banner != "%%MatrixMarket")
        return Error(ErrorCode::ParseError, "not a Matrix Market file",
                     line_no);
    const auto unsupported = [line_no](std::string what) {
        return Error(ErrorCode::UnsupportedError, std::move(what), line_no);
    };
    if (to_lower(object) != "matrix")
        return unsupported("unsupported MatrixMarket object: " + object);
    if (to_lower(format) != "coordinate")
        return unsupported("only coordinate format is supported");
    const std::string f = to_lower(field);
    if (f != "real" && f != "integer" && f != "pattern")
        return unsupported("unsupported MatrixMarket field: " + field);
    const std::string s = to_lower(symmetry);
    if (s != "general" && s != "symmetric" && s != "skew-symmetric")
        return unsupported("unsupported MatrixMarket symmetry: " + symmetry);
    MmHeader h;
    h.pattern = (f == "pattern");
    h.symmetric = (s == "symmetric" || s == "skew-symmetric");
    h.skew = (s == "skew-symmetric");
    return h;
}

[[nodiscard]] Result<MmSize> parse_size_line(std::string_view line,
                                             std::int64_t line_no,
                                             const MmHeader& header,
                                             IndexWidthChoice width) {
    SPMV_RETURN_IF_ERROR(fault::maybe_fail("mm.size_line"));
    const auto fail = [line_no](ErrorCode code, std::string what) {
        return Error(code, std::move(what), line_no);
    };
    MmSize size;
    const char* p = line.data();
    const char* end = line.data() + line.size();
    if (!parse_number(p, end, size.rows) || !parse_number(p, end, size.cols) ||
        !parse_number(p, end, size.nnz))
        return fail(ErrorCode::ParseError,
                    "malformed size line (expected 'rows cols nnz')");
    // A fourth token means this is not a coordinate size line (array
    // format, or a corrupted file) — never accept trailing garbage here.
    if (!rest_is_blank(p, end))
        return fail(ErrorCode::ParseError, "trailing garbage after size line");
    if (size.rows < 0 || size.cols < 0 || size.nnz < 0)
        return fail(ErrorCode::ValidationError,
                    "negative Matrix Market dimensions");
    if (header.symmetric && size.rows != size.cols)
        return fail(ErrorCode::ValidationError,
                    "symmetric file with non-square dimensions");
    // int64 overflow is diagnosed before any width policy: a file whose
    // rows*cols does not even fit int64 is broken at every index width.
    std::int64_t cells = 0;
    if (!checked_mul(size.rows, size.cols, cells))
        return fail(ErrorCode::OverflowError, "rows*cols overflows int64");
    if (size.nnz > cells)
        return fail(ErrorCode::ValidationError,
                    "declared nnz " + std::to_string(size.nnz) +
                        " exceeds rows*cols = " + std::to_string(cells));
    // The W32 bounds are enforced here, before any entry is read, only
    // when the caller *forces* the narrow layout; Auto resolves the width
    // after the size line (sparse/index_width.hpp) and W64 has no 32-bit
    // bounds at all.
    if (width == IndexWidthChoice::W32) {
        if (size.cols > std::numeric_limits<std::int32_t>::max())
            return fail(ErrorCode::UnsupportedError,
                        "cols exceed int32 (CSR layout stores 4-byte column "
                        "indices)");
        if (header.symmetric &&
            size.rows > std::numeric_limits<std::int32_t>::max())
            return fail(ErrorCode::UnsupportedError,
                        "symmetric expansion needs rows to fit int32");
        if (!width32_representable(size.rows, size.cols,
                                   header.symmetric ? 0 : size.nnz))
            return fail(ErrorCode::UnsupportedError,
                        "matrix does not fit the forced 32-bit index layout");
    }
    std::int64_t logical = size.nnz;
    if (header.symmetric &&
        !checked_mul<std::int64_t>(size.nnz, 2, logical))
        return fail(ErrorCode::OverflowError,
                    "symmetric nnz expansion overflows int64");
    return size;
}

/// Parses and validates one non-comment entry line: every per-entry check
/// except the cross-entry duplicate test, which needs the merge's global
/// state. The check order fixes which error a bad line reports.
[[nodiscard]] Result<MmEntry> parse_entry_line(std::string_view line,
                                               std::int64_t line_no,
                                               const MmHeader& header,
                                               const MmSize& size,
                                               bool strict) {
    const auto fail = [line_no](ErrorCode code, std::string what) {
        return Error(code, std::move(what), line_no);
    };
    MmEntry entry;
    const char* p = line.data();
    const char* end = line.data() + line.size();
    if (!parse_number(p, end, entry.row) || !parse_number(p, end, entry.col))
        return fail(ErrorCode::ParseError,
                    "malformed entry line (expected 'row col[ value]')");
    if (!header.pattern && !parse_number(p, end, entry.value))
        return fail(ErrorCode::ParseError,
                    "missing or non-numeric value on entry line");
    if (strict && !rest_is_blank(p, end))
        return fail(ErrorCode::ParseError, "trailing garbage after entry");
    if (entry.row < 1 || entry.row > size.rows || entry.col < 1 ||
        entry.col > size.cols)
        return fail(ErrorCode::ValidationError,
                    "index (" + std::to_string(entry.row) + ", " +
                        std::to_string(entry.col) + ") out of range for " +
                        std::to_string(size.rows) + "x" +
                        std::to_string(size.cols) + " matrix");
    if (strict && !std::isfinite(entry.value))
        return fail(ErrorCode::ValidationError,
                    "non-finite value on entry line");
    if (strict && header.symmetric && entry.col > entry.row)
        return fail(ErrorCode::ValidationError,
                    "entry above the diagonal in a symmetric file");
    return entry;
}

/// Line iterator over an in-memory buffer: '\n' delimits lines, a
/// non-empty trailing fragment without '\n' is a line, and a line longer
/// than max_line_bytes is a ParseError on that (not yet counted) line.
class LineCursor {
public:
    LineCursor(std::string_view text, std::size_t max_line_bytes)
        : text_(text), max_line_bytes_(max_line_bytes) {}

    /// true = a line is available via view(); false = clean end of input.
    [[nodiscard]] Result<bool> next() {
        if (pos_ >= text_.size()) return false;
        const char* begin = text_.data() + pos_;
        const char* nl = static_cast<const char*>(
            std::memchr(begin, '\n', text_.size() - pos_));
        const std::size_t len =
            nl != nullptr ? static_cast<std::size_t>(nl - begin)
                          : text_.size() - pos_;
        if (len > max_line_bytes_)
            return Error(ErrorCode::ParseError,
                         "line exceeds maximum length of " +
                             std::to_string(max_line_bytes_) + " bytes",
                         line_no_ + 1);
        ++line_no_;
        view_ = std::string_view(begin, len);
        pos_ += len + (nl != nullptr ? 1 : 0);
        return true;
    }

    [[nodiscard]] std::string_view view() const noexcept { return view_; }
    [[nodiscard]] std::int64_t line_no() const noexcept { return line_no_; }
    /// Byte offset of the first unread character.
    [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

private:
    std::string_view text_;
    std::size_t max_line_bytes_;
    std::size_t pos_ = 0;
    std::string_view view_;
    std::int64_t line_no_ = 0;
};

/// What one chunk hands to the merge: its entries in file order, its line
/// count, and the first error; lines are chunk-relative (1-based).
struct ChunkResult {
    std::vector<MmEntry> entries;
    std::int64_t lines = 0;
    std::optional<Error> error;
};

/// Parses one chunk of the entry region up to its first error. Later
/// lines stay uncounted: the error either aborts the parse or lies past
/// the declared final entry, where the merge needs only its line.
ChunkResult parse_chunk(std::string_view chunk, const MmHeader& header,
                        const MmSize& size, const MmReadOptions& options) {
    ChunkResult out;
    LineCursor cursor(chunk, options.max_line_bytes);
    Status status = [&]() -> Status {
        SPMV_RETURN_IF_ERROR(fault::maybe_fail("mm.chunk"));
        // Rough guess: a minimal entry line ("1 1\n") is four bytes.
        out.entries.reserve(chunk.size() / 8 + 1);
        for (;;) {
            SPMV_ASSIGN_OR_RETURN(const bool have_line, cursor.next());
            if (!have_line) return OkStatus();
            if (is_comment_or_blank(cursor.view())) continue;
            SPMV_ASSIGN_OR_RETURN(
                const MmEntry entry,
                parse_entry_line(cursor.view(), cursor.line_no(), header,
                                 size, options.strict));
            out.entries.push_back(entry);
        }
    }();
    if (!status.ok()) {
        out.error = std::move(status).to_error();
        // An injected fault has no line: it names the chunk's first.
        out.error->line = std::max<std::int64_t>(out.error->line, 1);
    }
    out.lines = cursor.line_no();
    return out;
}

/// Chunk-relative line of the chunk's `index`-th entry. Cold path: only
/// strict-mode rejections need it, so the merge re-scans the chunk rather
/// than every chunk storing a line per entry.
std::int64_t entry_line(std::string_view chunk, std::size_t index,
                        const MmReadOptions& options) {
    LineCursor cursor(chunk, options.max_line_bytes);
    std::size_t seen = 0;
    for (Result<bool> line = cursor.next(); line.ok() && line.value();
         line = cursor.next()) {
        if (is_comment_or_blank(cursor.view())) continue;
        if (seen++ == index) break;
    }
    return cursor.line_no();
}

/// How the entry region is cut and fanned out (see detail:: in the
/// header); every public entry point uses default_grid().
struct Grid {
    std::size_t workers;
    std::size_t chunk_bytes;
};
/// 1 MiB chunks, at most four per host worker.
Grid default_grid() { return {default_host_jobs(), std::size_t{1} << 20}; }

/// Splits `region` into ceil(size / chunk_bytes) chunks, clamped to
/// [1, 4 * workers], of about equal size. Each ends just past a '\n' (or
/// at the end), so no line straddles two.
std::vector<std::string_view> split_chunks(std::string_view region,
                                           Grid grid) {
    const std::size_t want = std::clamp<std::size_t>(
        region.size() / grid.chunk_bytes +
            (region.size() % grid.chunk_bytes != 0 ? 1 : 0),
        1, 4 * grid.workers);
    const std::size_t target = (region.size() + want - 1) / want;
    std::vector<std::string_view> chunks;
    while (!region.empty()) {
        const std::size_t nl =
            region.find('\n', std::min(target, region.size()) - 1);
        const std::size_t len =
            nl == std::string_view::npos ? region.size() : nl + 1;
        chunks.push_back(region.substr(0, len));
        region.remove_prefix(len);
    }
    return chunks;
}

/// Parses `text` into COO: header serially, then the chunked entry region
/// and a deterministic merge in file order. The text must outlive only
/// this call, so a file reader can free it before CSR assembly.
[[nodiscard]] Result<CooMatrix> parse_coo(std::string_view text,
                                          const MmReadOptions& options,
                                          Grid grid) {
    SPMV_EXPECTS(grid.workers >= 1 && grid.chunk_bytes >= 1);
    SPMV_RETURN_IF_ERROR(fault::maybe_fail("mm.header"));
    LineCursor cursor(text, options.max_line_bytes);

    SPMV_ASSIGN_OR_RETURN(bool have_banner, cursor.next());
    if (!have_banner)
        return Error(ErrorCode::ParseError, "empty Matrix Market stream", 1);
    SPMV_ASSIGN_OR_RETURN(const MmHeader header,
                          parse_banner(cursor.view(), cursor.line_no()));
    // Skip comments and blank lines to the size line.
    for (;;) {
        SPMV_ASSIGN_OR_RETURN(bool have_line, cursor.next());
        if (!have_line)
            return Error(ErrorCode::ParseError, "missing size line",
                         cursor.line_no() + 1);
        if (!is_comment_or_blank(cursor.view())) break;
    }
    SPMV_ASSIGN_OR_RETURN(
        const MmSize size,
        parse_size_line(cursor.view(), cursor.line_no(), header,
                        options.index_width));

    const std::vector<std::string_view> chunks =
        split_chunks(text.substr(cursor.pos()), grid);
    std::vector<ChunkResult> results(chunks.size());
    const auto parse_one = [&](std::size_t i) {
        results[i] = parse_chunk(chunks[i], header, size, options);
    };
    if (chunks.size() <= 1 || grid.workers <= 1) {
        for (std::size_t i = 0; i < chunks.size(); ++i) parse_one(i);
    } else {
        ThreadPool pool(std::min(grid.workers, chunks.size()));
        pool.parallel_for(chunks.size(), parse_one);
    }

    // Deterministic merge in file order. Chunk k's relative line r is
    // absolute line header_lines + (lines of chunks 0..k-1) + r.
    CooMatrix coo(size.rows, size.cols);
    // parse_size_line proved 2*nnz fits; the contract keeps that proof
    // attached to the arithmetic it guards.
    std::int64_t logical_nnz = size.nnz;
    if (header.symmetric)
        SPMV_EXPECT(checked_mul<std::int64_t>(2, size.nnz, logical_nnz));
    // Cap the up-front reservation: a lying size line must not be able to
    // trigger a huge allocation before the truncation check catches it.
    coo.reserve(static_cast<std::size_t>(
        std::min<std::int64_t>(logical_nnz, std::int64_t{1} << 24)));
    std::unordered_set<std::int64_t> seen_keys;
    if (options.strict)
        seen_keys.reserve(static_cast<std::size_t>(
            std::min<std::int64_t>(size.nnz, std::int64_t{1} << 24)));

    // Past the declared final entry, lenient mode ignores the rest of the
    // input and strict mode rejects the first line of data.
    const auto past_final_entry = [&](std::int64_t line) -> Result<CooMatrix> {
        if (!options.strict) return std::move(coo);
        return Error(ErrorCode::ParseError,
                     "data after the declared final entry", line);
    };
    std::int64_t seen = 0;
    std::int64_t line_base = cursor.line_no();
    for (std::size_t k = 0; k < results.size(); ++k) {
        ChunkResult& chunk = results[k];
        for (std::size_t i = 0; i < chunk.entries.size(); ++i) {
            if (seen == size.nnz)
                return past_final_entry(line_base +
                                        entry_line(chunks[k], i, options));
            const MmEntry& entry = chunk.entries[i];
            if (options.strict &&
                !seen_keys
                     .insert((entry.row - 1) * size.cols + (entry.col - 1))
                     .second)
                return Error(ErrorCode::ValidationError,
                             "duplicate entry (" + std::to_string(entry.row) +
                                 ", " + std::to_string(entry.col) + ")",
                             line_base + entry_line(chunks[k], i, options));
            coo.add(entry.row - 1, entry.col - 1, entry.value);
            if (header.symmetric && entry.row != entry.col)
                coo.add(entry.col - 1, entry.row - 1,
                        header.skew ? -entry.value : entry.value);
            ++seen;
        }
        // swap, not `= {}`: assignment would keep the capacity.
        std::vector<MmEntry>().swap(chunk.entries);
        if (chunk.error.has_value()) {
            chunk.error->line += line_base;
            if (seen == size.nnz) return past_final_entry(chunk.error->line);
            return std::move(*chunk.error)
                .wrap("entry " + std::to_string(seen + 1));
        }
        line_base += chunk.lines;
    }
    if (seen != size.nnz)
        return Error(ErrorCode::ParseError,
                     "truncated: size line declares " +
                         std::to_string(size.nnz) + " entries, found " +
                         std::to_string(seen),
                     std::max<std::int64_t>(line_base, 1));
    return coo;
}

/// CSR assembly at the resolved width; every error gets `context`.
[[nodiscard]] Result<AnyCsrMatrix> assemble(Result<CooMatrix> coo,
                                            IndexWidthChoice width,
                                            const std::string& context) {
    if (!coo.ok()) return std::move(coo).wrap(context).to_error();
    return std::move(coo).value().to_csr_any(width).wrap(context);
}

/// Reads the whole file. Its size is only a reserve hint, so pipes and
/// FIFOs (no size, no seek) read to EOF like regular files.
[[nodiscard]] Result<std::string> read_file_text(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Error(ErrorCode::ResourceError, "cannot open '" + path + "'");
    std::error_code ec;
    const std::uintmax_t hint = std::filesystem::file_size(path, ec);
    // One spare byte lets a read of an exactly-sized file hit EOF.
    std::string text(ec ? std::size_t{1} << 16
                        : static_cast<std::size_t>(hint) + 1,
                     '\0');
    std::size_t size = 0;
    for (;;) {
        in.read(text.data() + size,
                static_cast<std::streamsize>(text.size() - size));
        size += static_cast<std::size_t>(in.gcount());
        if (!in) break;
        text.resize(std::max<std::size_t>(2 * text.size(), 1 << 16));
    }
    if (in.bad())
        return Error(ErrorCode::ResourceError,
                     "read failed for '" + path + "'");
    text.resize(size);
    return text;
}

/// The narrow entry points are the width-aware ones at a forced W32.
[[nodiscard]] MmReadOptions forced_w32(MmReadOptions options) {
    options.index_width = IndexWidthChoice::W32;
    return options;
}

/// Unwraps a forced-W32 parse into the narrow matrix the legacy entry
/// points return.
[[nodiscard]] Result<CsrMatrix> narrow_result(Result<AnyCsrMatrix> any) {
    if (!any.ok()) return std::move(any).to_error();
    AnyCsrMatrix m = std::move(any).value();
    SPMV_EXPECTS(m.as32() != nullptr);
    return std::move(m).take32();
}

}  // namespace

[[nodiscard]] Result<CsrMatrix> try_read_matrix_market(
    std::string_view text, const MmReadOptions& options) {
    return narrow_result(try_read_matrix_market_any(text, forced_w32(options)));
}

[[nodiscard]] Result<CsrMatrix> try_read_matrix_market_file(
    const std::string& path, const MmReadOptions& options) {
    return narrow_result(
        try_read_matrix_market_any_file(path, forced_w32(options)));
}

[[nodiscard]] Result<AnyCsrMatrix> try_read_matrix_market_any(
    std::string_view text, const MmReadOptions& options) {
    return assemble(parse_coo(text, options, default_grid()),
                    options.index_width, "reading Matrix Market stream");
}

[[nodiscard]] Result<AnyCsrMatrix> try_read_matrix_market_any_file(
    const std::string& path, const MmReadOptions& options) {
    const std::string context = "reading '" + path + "'";
    if (const Status s = fault::maybe_fail("mm.open"); !s.ok())
        return Status(s).wrap(context);
    // The text dies with the lambda, before CSR assembly allocates.
    return assemble(
        [&]() -> Result<CooMatrix> {
            SPMV_ASSIGN_OR_RETURN(const std::string text,
                                  read_file_text(path));
            return parse_coo(text, options, default_grid());
        }(),
        options.index_width, context);
}

[[nodiscard]] Result<CsrMatrix> detail::try_read_matrix_market_chunked(
    std::string_view text, const MmReadOptions& options, std::size_t workers,
    std::size_t chunk_bytes) {
    return narrow_result(assemble(
        parse_coo(text, forced_w32(options), Grid{workers, chunk_bytes}),
        IndexWidthChoice::W32, "reading Matrix Market stream"));
}

CsrMatrix read_matrix_market(std::string_view text) {
    Result<CsrMatrix> r = try_read_matrix_market(text);
    if (!r.ok()) throw_status(std::move(r).to_error());
    return std::move(r).value();
}

CsrMatrix read_matrix_market_file(const std::string& path) {
    Result<CsrMatrix> r = try_read_matrix_market_file(path);
    if (!r.ok()) throw_status(std::move(r).to_error());
    return std::move(r).value();
}

void write_matrix_market(std::ostream& out, const CsrMatrix& m) {
    out << "%%MatrixMarket matrix coordinate real general\n";
    out << m.rows() << ' ' << m.cols() << ' ' << m.nnz() << '\n';
    const auto rowptr = m.rowptr();
    const auto colidx = m.colidx();
    const auto values = m.values();
    for (std::int64_t r = 0; r < m.rows(); ++r) {
        for (auto i = rowptr[static_cast<std::size_t>(r)];
             i < rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
            out << (r + 1) << ' '
                << (colidx[static_cast<std::size_t>(i)] + 1) << ' '
                << values[static_cast<std::size_t>(i)] << '\n';
        }
    }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& m) {
    std::ofstream out(path);
    if (!out)
        throw_status(Error(ErrorCode::ResourceError,
                           "cannot open '" + path + "' for writing"));
    write_matrix_market(out, m);
    out.flush();
    if (!out)
        throw_status(Error(ErrorCode::ResourceError,
                           "write failed for '" + path + "'"));
}

}  // namespace spmvcache
