#include "io/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "io/errors.hpp"
#include "io/scan.hpp"
#include "pygb/governor.hpp"

namespace pygb::io {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

[[noreturn]] void fail(const std::string& what, const std::string& msg) {
  throw ParseError("matrix market (" + what + "): " + msg);
}

/// Checked narrowing for header-supplied 64-bit values. IndexType is
/// unsigned, so the dangerous inputs are negatives (which would wrap to
/// huge indices) — the caller has already range-checked magnitudes.
gbtl::IndexType to_index(long long v, const std::string& what,
                         const char* field) {
  if (v < 0) fail(what, std::string("negative ") + field);
  return static_cast<gbtl::IndexType>(v);
}

/// Bytes each coordinate entry occupies in the staged Coo arrays
/// (IndexType row + IndexType col + double val).
constexpr std::uint64_t kBytesPerEntry =
    sizeof(gbtl::IndexType) * 2 + sizeof(double);

/// Entries parsed between governor checkpoints.
constexpr long long kCheckpointEvery = 4096;

/// The nnz header of an untrusted file must not size a reserve() on its
/// own: "1 1 9999999999999" is a 20-byte file claiming terabytes. Clamp
/// the claim to what the remaining stream bytes could possibly encode —
/// the minimum well-formed entry is "1 1\n" (4 bytes) for pattern files
/// and "1 1 1\n" (6 bytes) otherwise. For non-seekable streams the claim
/// is still bounded by the governor charge below; the reserve is merely
/// allowed to be optimistic.
std::uint64_t clamp_reserve_to_stream(std::istream& in, std::uint64_t claimed,
                                      bool pattern) {
  const std::uint64_t min_entry_bytes = pattern ? 4 : 6;
  const auto here = in.tellg();
  if (here < 0) return claimed;  // non-seekable stream: only the charge caps
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(here);
  if (end < 0 || end < here) return claimed;
  const std::uint64_t remaining = static_cast<std::uint64_t>(end - here);
  return std::min(claimed, remaining / min_entry_bytes + 1);
}

}  // namespace

Coo read_matrix_market(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail(path, "cannot open file");
  return read_matrix_market(in, path);
}

Coo read_matrix_market(std::istream& in, const std::string& what) {
  std::string line;
  if (!std::getline(in, line)) fail(what, "empty file");

  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket") fail(what, "missing %%MatrixMarket banner");
  if (lower(object) != "matrix" || lower(format) != "coordinate") {
    fail(what, "only 'matrix coordinate' files are supported");
  }
  field = lower(field);
  symmetry = lower(symmetry);
  const bool pattern = field == "pattern";
  const bool integer = field == "integer";
  if (!pattern && field != "real" && !integer) {
    fail(what, "unsupported field type '" + field + "'");
  }
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general") {
    fail(what, "unsupported symmetry '" + symmetry + "'");
  }

  // Skip comments, read the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  long long nrows = 0, ncols = 0, nnz = 0;
  if (!(size_line >> nrows >> ncols >> nnz) || nrows <= 0 || ncols <= 0 ||
      nnz < 0) {
    fail(what, "bad size line '" + line + "'");
  }

  Coo coo;
  coo.nrows = to_index(nrows, what, "row count");
  coo.ncols = to_index(ncols, what, "column count");

  // Size the reserve from the nnz claim, but never beyond what the stream
  // could actually contain, and charge it against the governor budget
  // BEFORE allocating (incremental top-ups below cover symmetric growth
  // past the initial estimate).
  const std::uint64_t expansion = symmetric ? 2 : 1;
  const std::uint64_t reserve_n =
      clamp_reserve_to_stream(in, static_cast<std::uint64_t>(nnz), pattern) *
      expansion;
  governor::MemCharge charge(reserve_n * kBytesPerEntry);
  coo.rows.reserve(static_cast<std::size_t>(reserve_n));
  coo.cols.reserve(static_cast<std::size_t>(reserve_n));
  coo.vals.reserve(static_cast<std::size_t>(reserve_n));

  // The entries are read through a window over the stream's buffer (see
  // io/scan.hpp), which may read past the last entry.
  scan::Window win(*in.rdbuf());
  for (long long k = 0; k < nnz; ++k) {
    if (k % kCheckpointEvery == 0) governor::checkpoint();
    long long i = 0, j = 0;
    double v = 1.0;
    if (!win.next_int(i) || !win.next_int(j)) {
      fail(what, "truncated entry list");
    }
    if (!pattern) {
      // A whole token read as strtod reads it, so IEEE specials ("nan",
      // "inf") and overflowing literals ("1e999") reach the finiteness
      // check below instead of failing as a truncated entry.
      const std::string_view tok = win.next_token();
      if (tok.empty()) fail(what, "truncated entry value");
      if (!scan::parse_double_token(tok, v)) {
        fail(what, "bad entry value '" + std::string(tok) + "'");
      }
    }
    if (i < 1 || i > nrows || j < 1 || j > ncols) {
      fail(what, "entry index out of range");
    }
    if (integer && !std::isfinite(v)) {
      fail(what, "non-finite value in integer field");
    }
    if (coo.vals.size() == coo.vals.capacity()) {
      // The stream held more entries than the clamp estimated (dense
      // whitespace, symmetric expansion) — charge the doubling before the
      // vectors perform it.
      charge.add(std::max<std::uint64_t>(coo.vals.capacity(), 16) *
                 kBytesPerEntry);
    }
    coo.rows.push_back(static_cast<gbtl::IndexType>(i - 1));
    coo.cols.push_back(static_cast<gbtl::IndexType>(j - 1));
    coo.vals.push_back(v);
    if (symmetric && i != j) {
      coo.rows.push_back(static_cast<gbtl::IndexType>(j - 1));
      coo.cols.push_back(static_cast<gbtl::IndexType>(i - 1));
      coo.vals.push_back(v);
    }
  }
  return coo;
}

void write_matrix_market(const std::string& path, const Coo& coo) {
  std::ofstream out(path);
  if (!out) fail(path, "cannot open file for writing");
  write_matrix_market(out, coo);
}

void write_matrix_market(std::ostream& out, const Coo& coo) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << coo.nrows << ' ' << coo.ncols << ' ' << coo.nnz() << '\n';
  for (std::size_t k = 0; k < coo.nnz(); ++k) {
    out << coo.rows[k] + 1 << ' ' << coo.cols[k] + 1 << ' ' << coo.vals[k]
        << '\n';
  }
}

}  // namespace pygb::io
