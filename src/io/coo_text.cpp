#include "io/coo_text.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

#include "io/errors.hpp"
#include "io/scan.hpp"
#include "pygb/governor.hpp"

namespace pygb::io {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& msg) {
  throw ParseError("coo text (" + path + "): " + msg);
}

/// Bytes one staged entry occupies (row + col index, double value).
constexpr std::uint64_t kBytesPerEntry =
    sizeof(gbtl::IndexType) * 2 + sizeof(double);

/// Charge the governor budget in batches as the triplet arrays grow; the
/// file carries no trustworthy size claim, so the charge is incremental.
constexpr std::size_t kChargeBatch = 4096;

/// Skip whitespace inside a line; false if the line ends first.
bool skip_space(const char*& p, const char* end) {
  while (p != end && scan::is_space(*p)) ++p;
  return p != end;
}

/// Box one token the way a Python tokenizer would: try int, then float,
/// else keep the string.
BoxedValue box_token(const std::string& tok) {
  long long iv = 0;
  auto [p_int, ec_int] = std::from_chars(tok.data(), tok.data() + tok.size(), iv);
  if (ec_int == std::errc{} && p_int == tok.data() + tok.size()) {
    return std::make_unique<PyValue>(iv);
  }
  try {
    std::size_t pos = 0;
    const double dv = std::stod(tok, &pos);
    if (pos == tok.size()) return std::make_unique<PyValue>(dv);
  } catch (const std::exception&) {
    // fall through to string
  }
  return std::make_unique<PyValue>(tok);
}

/// Dynamic numeric coercion — the per-access type dispatch a Python loop
/// pays when consuming heterogeneous list elements.
double as_double(const PyValue& v, const char* what) {
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* i = std::get_if<long long>(&v)) {
    return static_cast<double>(*i);
  }
  throw std::runtime_error(std::string("expected numeric token for ") + what);
}

long long as_int(const PyValue& v, const char* what) {
  if (const auto* i = std::get_if<long long>(&v)) return *i;
  if (const auto* d = std::get_if<double>(&v)) {
    return static_cast<long long>(*d);
  }
  throw std::runtime_error(std::string("expected integer token for ") + what);
}

}  // namespace

Coo read_coo_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail(path, "cannot open file");
  Coo coo;
  bool have_header = false;
  governor::MemCharge charge;
  // Line by line as std::getline splits them; within a line, numbers are
  // read as operator>> reads them (io/scan.hpp), so only an empty line is
  // skipped and tokens past the third are ignored.
  scan::Window win(*in.rdbuf());
  std::string_view line;
  while (win.next_line(line)) {
    if (line.empty()) continue;
    const char* p = line.data();
    const char* end = p + line.size();
    if (*p == '#') {
      ++p;
      long long r = 0, c = 0;
      if (skip_space(p, end) && scan::parse_int(p, end, r) &&
          skip_space(p, end) && scan::parse_int(p, end, c)) {
        if (r < 0 || c < 0) fail(path, "negative dimension in header");
        coo.nrows = static_cast<gbtl::IndexType>(r);
        coo.ncols = static_cast<gbtl::IndexType>(c);
        have_header = true;
      }
      continue;
    }
    long long i = 0, j = 0;
    double v = 0;
    if (!(skip_space(p, end) && scan::parse_int(p, end, i) &&
          skip_space(p, end) && scan::parse_int(p, end, j) &&
          skip_space(p, end) && scan::parse_stream_double(p, end, v))) {
      fail(path, "bad triplet line '" + std::string(line) + "'");
    }
    if (i < 0 || j < 0) fail(path, "negative index in triplet");
    if (have_header &&
        (static_cast<gbtl::IndexType>(i) >= coo.nrows ||
         static_cast<gbtl::IndexType>(j) >= coo.ncols)) {
      fail(path, "triplet index out of declared range");
    }
    if (coo.nnz() % kChargeBatch == 0) {
      governor::checkpoint();
      charge.add(kChargeBatch * kBytesPerEntry);
    }
    coo.rows.push_back(static_cast<gbtl::IndexType>(i));
    coo.cols.push_back(static_cast<gbtl::IndexType>(j));
    coo.vals.push_back(v);
  }
  if (!have_header) {
    // Infer the shape from the data.
    gbtl::IndexType mr = 0, mc = 0;
    for (std::size_t k = 0; k < coo.nnz(); ++k) {
      mr = std::max(mr, coo.rows[k] + 1);
      mc = std::max(mc, coo.cols[k] + 1);
    }
    coo.nrows = mr;
    coo.ncols = mc;
  }
  return coo;
}

void write_coo_text(const std::string& path, const Coo& coo) {
  std::ofstream out(path);
  if (!out) fail(path, "cannot open file for writing");
  out << "# " << coo.nrows << ' ' << coo.ncols << '\n';
  for (std::size_t k = 0; k < coo.nnz(); ++k) {
    out << coo.rows[k] << ' ' << coo.cols[k] << ' ' << coo.vals[k] << '\n';
  }
}

std::vector<PyList> read_file_as_pylists(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail(path, "cannot open file");
  std::vector<PyList> lists;
  std::string line, tok;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    PyList toks;
    std::istringstream ls(line);
    while (ls >> tok) toks.push_back(box_token(tok));
    lists.push_back(std::move(toks));
  }
  return lists;
}

Coo pylists_to_coo(const std::vector<PyList>& lists) {
  Coo coo;
  bool have_header = false;
  for (const auto& row : lists) {
    if (row.empty()) continue;
    if (!have_header && row.size() >= 3 &&
        std::holds_alternative<std::string>(*row[0]) &&
        std::get<std::string>(*row[0]) == "#") {
      coo.nrows = static_cast<gbtl::IndexType>(as_int(*row[1], "nrows"));
      coo.ncols = static_cast<gbtl::IndexType>(as_int(*row[2], "ncols"));
      have_header = true;
      continue;
    }
    if (row.size() != 3) {
      throw std::runtime_error("pylists_to_coo: expected 3 tokens per line");
    }
    coo.rows.push_back(
        static_cast<gbtl::IndexType>(as_int(*row[0], "row index")));
    coo.cols.push_back(
        static_cast<gbtl::IndexType>(as_int(*row[1], "col index")));
    coo.vals.push_back(as_double(*row[2], "value"));
  }
  if (!have_header) {
    gbtl::IndexType mr = 0, mc = 0;
    for (std::size_t k = 0; k < coo.nnz(); ++k) {
      mr = std::max(mr, coo.rows[k] + 1);
      mc = std::max(mc, coo.cols[k] + 1);
    }
    coo.nrows = mr;
    coo.ncols = mc;
  }
  return coo;
}

std::vector<PyList> coo_to_pylists(const Coo& coo) {
  std::vector<PyList> lists;
  lists.reserve(coo.nnz());
  for (std::size_t k = 0; k < coo.nnz(); ++k) {
    PyList row;
    row.push_back(
        std::make_unique<PyValue>(static_cast<long long>(coo.rows[k])));
    row.push_back(
        std::make_unique<PyValue>(static_cast<long long>(coo.cols[k])));
    row.push_back(std::make_unique<PyValue>(coo.vals[k]));
    lists.push_back(std::move(row));
  }
  return lists;
}

}  // namespace pygb::io
