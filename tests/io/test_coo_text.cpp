// Tests: the triplet-text fast path and the boxed "Python list" slow path
// (Fig. 11 ingestion pipelines), including their equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "io/coo_text.hpp"

namespace {

using namespace pygb::io;  // NOLINT

class CooTextFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("pygb_coo_test_" + std::to_string(::getpid()) + ".txt"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CooTextFile, WriteReadRoundTrip) {
  Coo coo;
  coo.nrows = 5;
  coo.ncols = 4;
  coo.rows = {0, 2, 4};
  coo.cols = {1, 3, 0};
  coo.vals = {1.5, 2.0, -3.25};
  write_coo_text(path_, coo);
  Coo back = read_coo_text(path_);
  EXPECT_EQ(back.nrows, 5u);
  EXPECT_EQ(back.ncols, 4u);
  ASSERT_EQ(back.nnz(), 3u);
  EXPECT_DOUBLE_EQ(back.vals[2], -3.25);
}

TEST_F(CooTextFile, ShapeInferredWithoutHeader) {
  {
    std::ofstream out(path_);
    out << "0 1 1.0\n3 2 2.0\n";
  }
  Coo coo = read_coo_text(path_);
  EXPECT_EQ(coo.nrows, 4u);
  EXPECT_EQ(coo.ncols, 3u);
}

TEST_F(CooTextFile, BadLineThrows) {
  {
    std::ofstream out(path_);
    out << "0 1\n";
  }
  EXPECT_THROW(read_coo_text(path_), std::runtime_error);
}

TEST_F(CooTextFile, MissingFileThrows) {
  EXPECT_THROW(read_coo_text("/nonexistent/x.txt"), std::runtime_error);
}

TEST_F(CooTextFile, PylistPathMatchesFastPath) {
  Coo coo;
  coo.nrows = 6;
  coo.ncols = 6;
  coo.rows = {0, 1, 5};
  coo.cols = {5, 0, 2};
  coo.vals = {1.0, 2.5, 3.0};
  write_coo_text(path_, coo);

  const Coo fast = read_coo_text(path_);
  const auto lists = read_file_as_pylists(path_);
  const Coo slow = pylists_to_coo(lists);

  EXPECT_EQ(fast.nrows, slow.nrows);
  EXPECT_EQ(fast.ncols, slow.ncols);
  ASSERT_EQ(fast.nnz(), slow.nnz());
  for (std::size_t k = 0; k < fast.nnz(); ++k) {
    EXPECT_EQ(fast.rows[k], slow.rows[k]);
    EXPECT_EQ(fast.cols[k], slow.cols[k]);
    EXPECT_DOUBLE_EQ(fast.vals[k], slow.vals[k]);
  }
}

// --- line semantics against the istream reading it replaced ---------------

/// The pre-scanner read_coo_text over in-memory text: std::getline lines,
/// operator>> for the header and the triplet. Throws where it threw.
Coo reference_read(const std::string& text) {
  std::istringstream in(text);
  Coo coo;
  std::string line;
  bool have_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream hdr(line.substr(1));
      long long r = 0, c = 0;
      if (hdr >> r >> c) {
        if (r < 0 || c < 0) throw std::runtime_error("negative dimension");
        coo.nrows = static_cast<gbtl::IndexType>(r);
        coo.ncols = static_cast<gbtl::IndexType>(c);
        have_header = true;
      }
      continue;
    }
    std::istringstream ls(line);
    long long i = 0, j = 0;
    double v = 0;
    if (!(ls >> i >> j >> v)) throw std::runtime_error("bad triplet line");
    if (i < 0 || j < 0) throw std::runtime_error("negative index");
    if (have_header && (static_cast<gbtl::IndexType>(i) >= coo.nrows ||
                        static_cast<gbtl::IndexType>(j) >= coo.ncols)) {
      throw std::runtime_error("out of declared range");
    }
    coo.rows.push_back(static_cast<gbtl::IndexType>(i));
    coo.cols.push_back(static_cast<gbtl::IndexType>(j));
    coo.vals.push_back(v);
  }
  if (!have_header) {
    for (std::size_t k = 0; k < coo.nnz(); ++k) {
      coo.nrows = std::max(coo.nrows, coo.rows[k] + 1);
      coo.ncols = std::max(coo.ncols, coo.cols[k] + 1);
    }
  }
  return coo;
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Write `text` to the fixture's file and require read_coo_text to read it
/// as reference_read does: the same arrays (values bitwise) or both throwing.
void expect_reads_like_reference(const std::string& path,
                                 const std::string& text) {
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  bool ref_threw = false;
  Coo want;
  try {
    want = reference_read(text);
  } catch (const std::runtime_error&) {
    ref_threw = true;
  }
  if (ref_threw) {
    EXPECT_THROW(read_coo_text(path), std::runtime_error);
    return;
  }
  const Coo got = read_coo_text(path);
  EXPECT_EQ(got.nrows, want.nrows);
  EXPECT_EQ(got.ncols, want.ncols);
  ASSERT_EQ(got.nnz(), want.nnz());
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.cols, want.cols);
  for (std::size_t k = 0; k < want.nnz(); ++k) {
    EXPECT_EQ(bits(got.vals[k]), bits(want.vals[k])) << "entry " << k;
  }
}

TEST_F(CooTextFile, LineSemanticsMatchTheStreamReader) {
  const char* const cases[] = {
      // header, comments, blank lines, extra tokens, CRLF, no final newline
      "# 4 4\n0 1 2.5 extra tokens\n\n\n1 2 3\r\n# a comment\n3 3 -1",
      "# nrows ncols\n0 0 1\n",       // an unparsable header is a comment
      "0 0 1\n# 2 2\n1 1 1\n",       // a later header applies from there
      "0 0 1\n# 2 2\n5 1 1\n",       // ... and range-checks what follows
      "#3 5 trailing\n2\t4\v0.5\f\n",
      "0 1 2\n  \n",                  // a whitespace-only line is an error
      "0 1 2\n\r\n",
      "0 1\n",                         // fewer than three tokens
      "+1 +2 +3\n",
      "+-1 2 3\n",
      "-0 0 1\n",
      "0 -1 1\n",
      "# -1 3\n",
      "1 2 3x\n",                      // operator>> stops at the 'x'
      "1.5 2 3\n",                     // ... and an index at the '.'
      "1 2 1.5.5\n",
      "99999999999999999999 1 1\n",
  };
  for (const char* text : cases) {
    SCOPED_TRACE(text);
    expect_reads_like_reference(path_, text);
  }
}

TEST_F(CooTextFile, ValueSpellingsMatchTheStreamReader) {
  // operator>> rejects nan, inf and overflow, reads an underflow as zero,
  // stops a hex float after its leading 0, and fails on a dangling exponent.
  for (const char* v :
       {"nan", "inf", "-inf", "1e999", "-1e999", "1e-400", "4.9e-324",
        "0x1p3", "1.5e", "1e+", "5E-2", "1.", ".5", "-.5e-3", ".", "-", "+",
        "e5", "00.25", "+7", "-0", "123456789012345678901234567890",
        "2.2250738585072011e-308", "1.7976931348623157e308",
        "1.7976931348623159e308"}) {
    SCOPED_TRACE(v);
    expect_reads_like_reference(path_, std::string("# 2 2\n1 1 ") + v +
                                           "\n0 0 4\n");
  }
}

TEST_F(CooTextFile, LinesAcrossAndBeyondTheWindow) {
  // Lines straddling the 64 KiB window edge, then one line longer than the
  // window (its extra tokens are ignored).
  std::string text = "# 1000 1000\n";
  for (int k = 0; text.size() < 70000; ++k) {
    text += std::to_string(k % 1000) + " " + std::to_string(k % 997) + " " +
            std::to_string(k) + ".25\n";
  }
  text += "7 8 9.5";
  for (int k = 0; k < 20000; ++k) text += " 123.5";
  text += "\n1 2 3";
  expect_reads_like_reference(path_, text);
  EXPECT_EQ(read_coo_text(path_).vals.back(), 3.0);
}

TEST(PyLists, TokensAreBoxedWithRuntimeTypes) {
  // Integers box to long long, reals to double, everything else to string.
  const auto lists = [&] {
    const auto path = std::filesystem::temp_directory_path() /
                      "pygb_boxed_test.txt";
    {
      std::ofstream out(path);
      out << "12 3.5 hello\n";
    }
    auto r = read_file_as_pylists(path.string());
    std::filesystem::remove(path);
    return r;
  }();
  ASSERT_EQ(lists.size(), 1u);
  ASSERT_EQ(lists[0].size(), 3u);
  EXPECT_TRUE(std::holds_alternative<long long>(*lists[0][0]));
  EXPECT_TRUE(std::holds_alternative<double>(*lists[0][1]));
  EXPECT_TRUE(std::holds_alternative<std::string>(*lists[0][2]));
}

TEST(PyLists, CooToPylistsRoundTrip) {
  Coo coo;
  coo.nrows = 3;
  coo.ncols = 3;
  coo.rows = {0, 2};
  coo.cols = {1, 2};
  coo.vals = {4.0, 5.5};
  const auto lists = coo_to_pylists(coo);
  ASSERT_EQ(lists.size(), 2u);
  EXPECT_EQ(std::get<long long>(*lists[0][0]), 0);
  EXPECT_EQ(std::get<long long>(*lists[0][1]), 1);
  EXPECT_DOUBLE_EQ(std::get<double>(*lists[0][2]), 4.0);
  // Feeding the extract back through the slow parser restores the data
  // (shape is inferred since the header row is absent).
  Coo back = pylists_to_coo(lists);
  ASSERT_EQ(back.nnz(), 2u);
  EXPECT_DOUBLE_EQ(back.vals[1], 5.5);
}

TEST(PyLists, NonNumericTripletThrows) {
  std::vector<PyList> lists;
  PyList row;
  row.push_back(std::make_unique<PyValue>(std::string("x")));
  row.push_back(std::make_unique<PyValue>(1LL));
  row.push_back(std::make_unique<PyValue>(2.0));
  lists.push_back(std::move(row));
  EXPECT_THROW(pylists_to_coo(lists), std::runtime_error);
}

}  // namespace
