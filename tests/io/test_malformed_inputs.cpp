// Tests: adversarial/malformed ingestion corpus (docs/ROBUSTNESS.md).
// Every case must surface as a typed pygb::io::ParseError (or a governor
// ResourceExhausted for oversized-but-well-formed input), with no partial
// output and no allocation sized by an untrusted header field. The suite
// also runs under the ASan+UBSan CI job.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "io/coo_text.hpp"
#include "io/errors.hpp"
#include "io/matrix_market.hpp"
#include "pygb/governor.hpp"

namespace {

using pygb::io::Coo;
using pygb::io::ParseError;
using pygb::io::read_coo_text;
using pygb::io::read_matrix_market;

/// Restore an unlimited budget no matter how the test exits.
class BudgetGuard {
 public:
  explicit BudgetGuard(std::uint64_t limit) {
    pygb::governor::set_mem_limit_bytes(limit);
  }
  ~BudgetGuard() { pygb::governor::set_mem_limit_bytes(0); }
};

std::string temp_file(const std::string& name, const std::string& contents) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out << contents;
  return path;
}

Coo parse_mm(const std::string& text) {
  std::istringstream in(text);
  return read_matrix_market(in, "test");
}

// --- Matrix Market ---------------------------------------------------------

TEST(MalformedMM, BadBannerIsTyped) {
  EXPECT_THROW(parse_mm("%%NotMatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 1 1\n"),
               ParseError);
}

TEST(MalformedMM, ParseErrorIsARuntimeError) {
  // Callers written against the old untyped throw keep working.
  EXPECT_THROW(parse_mm("garbage"), std::runtime_error);
}

TEST(MalformedMM, HugeNnzClaimDoesNotPreallocate) {
  // A 60-byte file claiming ~10^13 entries. The reserve must be clamped to
  // what the stream could hold, so with a modest 1 MiB budget in force the
  // failure is the typed truncation error, NOT a budget rejection (and
  // certainly not a terabyte allocation).
  BudgetGuard budget(1u << 20);
  EXPECT_THROW(parse_mm("%%MatrixMarket matrix coordinate real general\n"
                        "1000 1000 9999999999999\n"
                        "1 1 1.0\n"),
               ParseError);
}

TEST(MalformedMM, OversizedInputHitsTheBudgetBeforeAllocating) {
  // Well-formed file, absurdly small budget: the governor rejects the
  // staged-array charge up front.
  BudgetGuard budget(16);
  EXPECT_THROW(parse_mm("%%MatrixMarket matrix coordinate real general\n"
                        "3 3 3\n"
                        "1 1 1\n2 2 2\n3 3 3\n"),
               pygb::governor::ResourceExhausted);
}

TEST(MalformedMM, TruncatedEntryList) {
  EXPECT_THROW(parse_mm("%%MatrixMarket matrix coordinate real general\n"
                        "3 3 3\n"
                        "1 1 1.0\n"),
               ParseError);
}

TEST(MalformedMM, TruncatedEntryValue) {
  EXPECT_THROW(parse_mm("%%MatrixMarket matrix coordinate real general\n"
                        "3 3 1\n"
                        "1 1\n"),
               ParseError);
}

TEST(MalformedMM, IndexOutOfRange) {
  EXPECT_THROW(parse_mm("%%MatrixMarket matrix coordinate real general\n"
                        "3 3 1\n"
                        "4 1 1.0\n"),
               ParseError);
}

TEST(MalformedMM, NegativeIndexRejectedBeforeUnsignedWrap) {
  // -1 cast to IndexType would be 2^64-1; the range check must fire first.
  EXPECT_THROW(parse_mm("%%MatrixMarket matrix coordinate real general\n"
                        "3 3 1\n"
                        "-1 1 1.0\n"),
               ParseError);
}

TEST(MalformedMM, NegativeDimensions) {
  EXPECT_THROW(parse_mm("%%MatrixMarket matrix coordinate real general\n"
                        "-3 3 1\n1 1 1.0\n"),
               ParseError);
}

TEST(MalformedMM, NegativeNnz) {
  EXPECT_THROW(parse_mm("%%MatrixMarket matrix coordinate real general\n"
                        "3 3 -1\n"),
               ParseError);
}

TEST(MalformedMM, NonFiniteIntegerFieldRejected) {
  EXPECT_THROW(parse_mm("%%MatrixMarket matrix coordinate integer general\n"
                        "2 2 2\n"
                        "1 1 nan\n"
                        "2 2 inf\n"),
               ParseError);
}

TEST(MalformedMM, NonFiniteRealFieldStillParses) {
  // IEEE specials are representable in a real field; only the integer
  // field rejects them.
  Coo coo = parse_mm("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 1\n"
                     "1 1 nan\n");
  ASSERT_EQ(coo.nnz(), 1u);
  EXPECT_TRUE(std::isnan(coo.vals[0]));
}

TEST(MalformedMM, GarbageEntryLine) {
  EXPECT_THROW(parse_mm("%%MatrixMarket matrix coordinate real general\n"
                        "3 3 1\n"
                        "one one 1.0\n"),
               ParseError);
}

TEST(MalformedMM, CrlfLineEndingsParse) {
  Coo coo = parse_mm("%%MatrixMarket matrix coordinate real general\r\n"
                     "% comment\r\n"
                     "2 2 2\r\n"
                     "1 2 5.5\r\n"
                     "2 1 -2\r\n");
  EXPECT_EQ(coo.nrows, 2u);
  ASSERT_EQ(coo.nnz(), 2u);
  EXPECT_DOUBLE_EQ(coo.vals[0], 5.5);
}

TEST(MalformedMM, EmptyFile) {
  EXPECT_THROW(parse_mm(""), ParseError);
}

TEST(MalformedMM, GarbageTokenLongerThanTheReadWindow) {
  // The 64 KiB read window grows to hold the token, then rejects it.
  EXPECT_THROW(parse_mm("%%MatrixMarket matrix coordinate real general\n"
                        "3 3 1\n"
                        "1 1 " + std::string(200000, '7') + "x\n"),
               ParseError);
  EXPECT_THROW(parse_mm("%%MatrixMarket matrix coordinate real general\n"
                        "3 3 1\n"
                        "1 " + std::string(100000, '0') + "x 1\n"),
               ParseError);
}

TEST(MalformedMM, TruncatedExactlyAtTheReadWindowEdge) {
  // Entries fill the first 64 KiB window exactly; the claimed next entry
  // is missing, then present without its value.
  std::string body;
  long long n = 0;
  while (body.size() + 6 <= 64 * 1024) {
    body += "1 1 1\n";
    ++n;
  }
  body.append(64 * 1024 - body.size(), ' ');
  const std::string head = "%%MatrixMarket matrix coordinate real general\n"
                           "3 3 " + std::to_string(n + 1) + "\n";
  EXPECT_THROW(parse_mm(head + body), ParseError);
  EXPECT_THROW(parse_mm(head + body + "2 2"), ParseError);
  EXPECT_EQ(parse_mm(head + body + "2 2 2").nnz(),
            static_cast<std::size_t>(n + 1));
}

// --- COO text --------------------------------------------------------------

TEST(MalformedCooText, NegativeIndexRejected) {
  const auto path = temp_file("neg_index.coo", "# 3 3\n-1 2 1.0\n");
  EXPECT_THROW(read_coo_text(path), ParseError);
  std::remove(path.c_str());
}

TEST(MalformedCooText, IndexOutsideDeclaredShape) {
  const auto path = temp_file("oob_index.coo", "# 3 3\n5 1 1.0\n");
  EXPECT_THROW(read_coo_text(path), ParseError);
  std::remove(path.c_str());
}

TEST(MalformedCooText, NegativeHeaderDims) {
  const auto path = temp_file("neg_dims.coo", "# -3 3\n1 1 1.0\n");
  EXPECT_THROW(read_coo_text(path), ParseError);
  std::remove(path.c_str());
}

TEST(MalformedCooText, GarbageTripletLine) {
  const auto path = temp_file("garbage.coo", "# 3 3\nnot a triplet\n");
  EXPECT_THROW(read_coo_text(path), ParseError);
  std::remove(path.c_str());
}

TEST(MalformedCooText, BudgetRejectionBeforeGrowth) {
  const auto path = temp_file("budget.coo", "# 3 3\n0 0 1.0\n1 1 2.0\n");
  BudgetGuard budget(1024);  // below the first 4096-entry charge batch
  EXPECT_THROW(read_coo_text(path), pygb::governor::ResourceExhausted);
  std::remove(path.c_str());
}

TEST(MalformedCooText, WellFormedStillParses) {
  const auto path = temp_file("ok.coo", "# 2 2\n0 1 5.5\n1 0 -2\n");
  Coo coo = read_coo_text(path);
  EXPECT_EQ(coo.nrows, 2u);
  ASSERT_EQ(coo.nnz(), 2u);
  std::remove(path.c_str());
}

}  // namespace
