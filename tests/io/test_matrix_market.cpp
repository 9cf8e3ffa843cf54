// Tests: Matrix Market reader/writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <sstream>
#include <string>

#include "io/matrix_market.hpp"

namespace {

using pygb::io::Coo;
using pygb::io::read_matrix_market;
using pygb::io::to_matrix;
using pygb::io::write_matrix_market;

TEST(MatrixMarket, ReadGeneralReal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 2\n"
      "1 2 5.5\n"
      "3 1 -2\n");
  Coo coo = read_matrix_market(in, "test");
  EXPECT_EQ(coo.nrows, 3u);
  EXPECT_EQ(coo.ncols, 3u);
  ASSERT_EQ(coo.nnz(), 2u);
  EXPECT_EQ(coo.rows[0], 0u);
  EXPECT_EQ(coo.cols[0], 1u);
  EXPECT_DOUBLE_EQ(coo.vals[0], 5.5);
  EXPECT_EQ(coo.rows[1], 2u);
  EXPECT_EQ(coo.cols[1], 0u);
}

TEST(MatrixMarket, SymmetricExpansion) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 4\n"
      "3 3 7\n");  // diagonal entry not duplicated
  Coo coo = read_matrix_market(in, "test");
  EXPECT_EQ(coo.nnz(), 3u);
  auto m = to_matrix<double>(coo);
  EXPECT_DOUBLE_EQ(m.extractElement(1, 0), 4);
  EXPECT_DOUBLE_EQ(m.extractElement(0, 1), 4);
  EXPECT_DOUBLE_EQ(m.extractElement(2, 2), 7);
}

TEST(MatrixMarket, PatternGetsUnitValues) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "1 1\n");
  Coo coo = read_matrix_market(in, "test");
  ASSERT_EQ(coo.nnz(), 1u);
  EXPECT_DOUBLE_EQ(coo.vals[0], 1.0);
}

TEST(MatrixMarket, IntegerField) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate integer general\n"
      "2 2 1\n"
      "2 2 42\n");
  Coo coo = read_matrix_market(in, "test");
  EXPECT_DOUBLE_EQ(coo.vals[0], 42.0);
}

TEST(MatrixMarket, ErrorOnMissingBanner) {
  std::istringstream in("2 2 0\n");
  EXPECT_THROW(read_matrix_market(in, "test"), std::runtime_error);
}

TEST(MatrixMarket, ErrorOnUnsupportedField) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate complex general\n2 2 0\n");
  EXPECT_THROW(read_matrix_market(in, "test"), std::runtime_error);
}

TEST(MatrixMarket, ErrorOnBadIndex) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in, "test"), std::runtime_error);
}

TEST(MatrixMarket, ErrorOnTruncatedEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in, "test"), std::runtime_error);
}

TEST(MatrixMarket, RoundTrip) {
  Coo coo;
  coo.nrows = 4;
  coo.ncols = 5;
  coo.rows = {0, 2, 3};
  coo.cols = {1, 4, 0};
  coo.vals = {1.5, -2.0, 7.0};
  std::ostringstream out;
  write_matrix_market(out, coo);
  std::istringstream in(out.str());
  Coo back = read_matrix_market(in, "roundtrip");
  EXPECT_EQ(back.nrows, coo.nrows);
  EXPECT_EQ(back.ncols, coo.ncols);
  ASSERT_EQ(back.nnz(), coo.nnz());
  for (std::size_t k = 0; k < coo.nnz(); ++k) {
    EXPECT_EQ(back.rows[k], coo.rows[k]);
    EXPECT_EQ(back.cols[k], coo.cols[k]);
    EXPECT_DOUBLE_EQ(back.vals[k], coo.vals[k]);
  }
}

TEST(MatrixMarket, FileNotFoundThrows) {
  EXPECT_THROW(read_matrix_market("/nonexistent/path.mtx"),
               std::runtime_error);
}

TEST(CooConversion, ToMatrixAndBack) {
  Coo coo;
  coo.nrows = 3;
  coo.ncols = 3;
  coo.rows = {0, 1};
  coo.cols = {1, 2};
  coo.vals = {2.0, 3.0};
  auto m = to_matrix<int>(coo);
  EXPECT_EQ(m.extractElement(0, 1), 2);
  auto back = pygb::io::from_matrix(m);
  EXPECT_EQ(back.nnz(), 2u);
  EXPECT_EQ(back.nrows, 3u);
  EXPECT_DOUBLE_EQ(back.vals[1], 3.0);
}

// --- equivalence with istream/strtod reading ------------------------------
//
// The reader scans a 64 KiB window with std::from_chars. Each case below is
// also read by `reference_read`, the entry loop the reader used before its
// scanner (operator>> for the indices, one whitespace-delimited token through
// strtod for the value), and the results must agree bit for bit.

/// The pre-scanner reader for well-formed general/symmetric, real/integer/
/// pattern files. Throws std::runtime_error where that reader threw.
Coo reference_read(const std::string& text) {
  std::istringstream in(text);
  std::string line, banner, object, format, field, symmetry;
  std::getline(in, line);
  std::istringstream header(line);
  header >> banner >> object >> format >> field >> symmetry;
  const bool pattern = field == "pattern";
  const bool integer = field == "integer";
  const bool symmetric = symmetry == "symmetric";
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  long long nrows = 0, ncols = 0, nnz = 0;
  size_line >> nrows >> ncols >> nnz;
  Coo coo;
  coo.nrows = static_cast<gbtl::IndexType>(nrows);
  coo.ncols = static_cast<gbtl::IndexType>(ncols);
  std::string tok;
  for (long long k = 0; k < nnz; ++k) {
    long long i = 0, j = 0;
    double v = 1.0;
    if (!(in >> i >> j)) throw std::runtime_error("truncated entry list");
    if (!pattern) {
      if (!(in >> tok)) throw std::runtime_error("truncated entry value");
      char* end = nullptr;
      v = std::strtod(tok.c_str(), &end);
      if (end == tok.c_str() || *end != '\0') {
        throw std::runtime_error("bad entry value");
      }
    }
    if (i < 1 || i > nrows || j < 1 || j > ncols) {
      throw std::runtime_error("entry index out of range");
    }
    if (integer && !std::isfinite(v)) throw std::runtime_error("non-finite");
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

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Read `text` with both readers and require the same outcome: the same
/// arrays (values compared bitwise, so -0 and NaN count) or both throwing.
void expect_reads_like_reference(const std::string& text) {
  bool ref_threw = false;
  Coo want;
  try {
    want = reference_read(text);
  } catch (const std::runtime_error&) {
    ref_threw = true;
  }
  std::istringstream in(text);
  if (ref_threw) {
    EXPECT_THROW(read_matrix_market(in, "scan"), std::runtime_error);
    return;
  }
  const Coo got = read_matrix_market(in, "scan");
  EXPECT_EQ(got.nrows, want.nrows);
  EXPECT_EQ(got.ncols, want.ncols);
  ASSERT_EQ(got.nnz(), want.nnz());
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.cols, want.cols);
  for (std::size_t k = 0; k < want.nnz(); ++k) {
    EXPECT_EQ(bits(got.vals[k]), bits(want.vals[k]))
        << "entry " << k << ": " << got.vals[k] << " vs " << want.vals[k];
  }
}

const char* const kRealHeader =
    "%%MatrixMarket matrix coordinate real general\n";

/// Filler entries "1 1 1" padded with spaces to exactly `bytes` bytes.
std::string filler(std::size_t bytes, long long& count) {
  std::string s;
  while (bytes - s.size() >= 12) {
    s += "1 1 1\n";
    ++count;
  }
  s += "1 1 1";
  ++count;
  s.append(bytes - s.size() - 1, ' ');
  s += '\n';
  return s;
}

TEST(MatrixMarketScanner, EntryStraddlingTheWindowBoundary) {
  // The window is filled from the first byte after the size line; put a
  // multi-token entry across its 64 KiB edge at every offset it can take.
  const std::string entry = "123 4567 -8.0625e-3\n";
  for (std::size_t cut = 0; cut <= entry.size(); ++cut) {
    long long count = 0;
    const std::string body = filler(64 * 1024 - cut, count) + entry;
    const std::string text = std::string(kRealHeader) + "5000 5000 " +
                             std::to_string(count + 1) + "\n" + body;
    SCOPED_TRACE("cut " + std::to_string(cut));
    expect_reads_like_reference(text);
    std::istringstream in(text);
    const Coo coo = read_matrix_market(in, "straddle");
    EXPECT_EQ(coo.rows.back(), 122u);
    EXPECT_EQ(coo.cols.back(), 4566u);
    EXPECT_EQ(coo.vals.back(), std::strtod("-8.0625e-3", nullptr));
  }
}

TEST(MatrixMarketScanner, LongDecimalTokens) {
  // A 5000-digit decimal, and one longer than the whole window placed
  // across its edge: the window grows to hold the token.
  std::string digits;
  for (int k = 0; k < 5000; ++k) digits += static_cast<char>('0' + k % 10);
  std::string huge = "0.";
  for (int k = 0; k < 100000; ++k) huge += static_cast<char>('0' + k % 7);
  long long count = 0;
  const std::string body = "1 1 3." + digits + "\n2 2 -" + digits + "e-4990\n" +
                           filler(60000, count) + "3 3 " + huge +
                           "\n2 3 5\n";
  const std::string text = std::string(kRealHeader) + "3 3 " +
                           std::to_string(count + 4) + "\n" + body;
  expect_reads_like_reference(text);
  std::istringstream in(text);
  const Coo coo = read_matrix_market(in, "long");
  EXPECT_EQ(coo.vals[0], std::strtod(("3." + digits).c_str(), nullptr));
  EXPECT_EQ(coo.vals[coo.nnz() - 2], std::strtod(huge.c_str(), nullptr));
  EXPECT_EQ(coo.vals.back(), 5.0);
}

TEST(MatrixMarketScanner, SignsAndSpecialValues) {
  const std::string text = std::string(kRealHeader) +
                           "9 9 12\n"
                           "+1 +2 +1.5\n"
                           "2 3 1e999\n"
                           "3 4 -1e999\n"
                           "4 5 1e-400\n"
                           "5 6 4.9e-324\n"
                           "6 7 0x1p3\n"
                           "7 8 nan\n"
                           "8 9 -0\n"
                           "9 1 -inf\n"
                           "1 3 123456789012345\n"
                           "1 4 -1234567890123456789\n"
                           "1 5 .5e+1\n";
  expect_reads_like_reference(text);
  std::istringstream in(text);
  const Coo coo = read_matrix_market(in, "specials");
  ASSERT_EQ(coo.nnz(), 12u);
  EXPECT_EQ(coo.rows[0], 0u);
  EXPECT_EQ(coo.cols[0], 1u);
  EXPECT_EQ(coo.vals[0], 1.5);
  EXPECT_TRUE(std::isinf(coo.vals[1]) && coo.vals[1] > 0);
  EXPECT_TRUE(std::isinf(coo.vals[2]) && coo.vals[2] < 0);
  EXPECT_EQ(coo.vals[3], 0.0);
  EXPECT_EQ(coo.vals[5], 8.0);
  EXPECT_TRUE(std::isnan(coo.vals[6]));
  EXPECT_TRUE(coo.vals[7] == 0.0 && std::signbit(coo.vals[7]));
}

TEST(MatrixMarketScanner, OperatorShiftIndexSemantics) {
  // operator>> stops an index at the first non-digit; the rest of the token
  // is what the next read sees. "+-1" and a dangling sign are not numbers.
  for (const char* entries : {"1 2.0 3\n", "2 2x 1\n", "+-1 1 1\n",
                              "1 + 1\n", "1 1 +-1\n", "1 1 1.5x\n",
                              "99999999999999999999 1 1\n", "1 1 -\n"}) {
    SCOPED_TRACE(entries);
    expect_reads_like_reference(std::string(kRealHeader) + "3 3 1\n" +
                                entries);
  }
}

TEST(MatrixMarketScanner, SeparatorsAndLineBreaks) {
  expect_reads_like_reference(std::string(kRealHeader) +
                              "4 4 5\n"
                              "1\t2\t0.25\n"
                              "2\v3\f-1\r\n"
                              "3\r\n4\r\n7.5\r\n"
                              "  \t\n\n4 1\n\n 2e2\n"
                              "\f4\v4\t\t+8");  // no trailing newline
}

TEST(MatrixMarketScanner, LastTokenWithoutTrailingNewline) {
  const std::string text = std::string(kRealHeader) + "2 2 2\n1 1 1.5\n2 2 2.75";
  expect_reads_like_reference(text);
  std::istringstream in(text);
  EXPECT_EQ(read_matrix_market(in, "eof").vals.back(), 2.75);
}

TEST(MatrixMarketScanner, SymmetricIntegerAndPatternFiles) {
  expect_reads_like_reference(
      "%%MatrixMarket matrix coordinate integer symmetric\n"
      "% comment\n"
      "4 4 4\n"
      "2 1 -3\n3 3 7\n4 1 +12\n4 2 0");
  expect_reads_like_reference(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 3\n"
      "1 1\n2 1\n3 2");
  expect_reads_like_reference(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 3 2\n"
      "+1\t3\r\n2\n2\n");
}

TEST(MatrixMarketScanner, RandomValuesInEveryFormat) {
  // Values printed with %.17g, %e, %.3f, %a and as plain integers, mixed
  // separators: a few thousand tokens across two window fills.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> mag(-300, 300);
  std::uniform_int_distribution<int> pick(0, 5);
  const char* const seps[] = {" ", "\t", "  ", "\n", " \r\n", "\v"};
  std::string body;
  const int n = 6000;
  char buf[64];
  for (int k = 0; k < n; ++k) {
    const double v = std::pow(10.0, mag(rng) / 10) * (k % 2 ? -1 : 1);
    switch (pick(rng)) {
      case 0: std::snprintf(buf, sizeof buf, "%.17g", v); break;
      case 1: std::snprintf(buf, sizeof buf, "%e", v); break;
      case 2: std::snprintf(buf, sizeof buf, "%.3f", v); break;
      case 3: std::snprintf(buf, sizeof buf, "%a", v); break;
      case 4: std::snprintf(buf, sizeof buf, "%lld",
                            static_cast<long long>(rng() >> 12)); break;
      default: std::snprintf(buf, sizeof buf, "%+.9g", v); break;
    }
    body += std::to_string(1 + k % 97) + seps[pick(rng)] +
            std::to_string(1 + k % 89) + seps[pick(rng)] + buf + "\n";
  }
  expect_reads_like_reference(std::string(kRealHeader) + "97 89 " +
                              std::to_string(n) + "\n" + body);
}

}  // namespace
