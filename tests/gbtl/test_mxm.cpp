// Tests: gbtl::mxm — fixed cases, kernel-path coverage (Gustavson / dot /
// masked dot / transposed operands), and randomized property sweeps against
// the dense reference model.
#include <gtest/gtest.h>

#include "reference.hpp"

namespace {

using namespace gbtl;  // NOLINT
using testref::matches;
using testref::random_matrix;
using testref::ref_mxm;
using testref::ref_transpose;
using testref::to_dense;

TEST(Mxm, IdentityTimesMatrix) {
  Matrix<double> a({{1, 2}, {3, 4}});
  Matrix<double> eye = identity_matrix<double>(2);
  Matrix<double> c(2, 2);
  mxm(c, NoMask{}, NoAccumulate{}, ArithmeticSemiring<double>{}, eye, a);
  EXPECT_EQ(c, a);
  mxm(c, NoMask{}, NoAccumulate{}, ArithmeticSemiring<double>{}, a, eye);
  EXPECT_EQ(c, a);
}

TEST(Mxm, KnownSmallProduct) {
  Matrix<int> a({{1, 2}, {3, 4}});
  Matrix<int> b({{5, 6}, {7, 8}});
  Matrix<int> c(2, 2);
  mxm(c, NoMask{}, NoAccumulate{}, ArithmeticSemiring<int>{}, a, b);
  EXPECT_EQ(c.extractElement(0, 0), 19);
  EXPECT_EQ(c.extractElement(0, 1), 22);
  EXPECT_EQ(c.extractElement(1, 0), 43);
  EXPECT_EQ(c.extractElement(1, 1), 50);
}

TEST(Mxm, EmptyDotProductsProduceNoEntry) {
  // A's row structure misses B's column structure entirely -> empty C.
  Matrix<int> a(2, 2);
  a.setElement(0, 0, 1);
  Matrix<int> b(2, 2);
  b.setElement(1, 1, 1);
  Matrix<int> c(2, 2);
  mxm(c, NoMask{}, NoAccumulate{}, ArithmeticSemiring<int>{}, a, b);
  EXPECT_EQ(c.nvals(), 0u);
}

TEST(Mxm, DimensionMismatchThrows) {
  Matrix<int> a(2, 3), b(2, 2), c(2, 2);
  EXPECT_THROW(
      mxm(c, NoMask{}, NoAccumulate{}, ArithmeticSemiring<int>{}, a, b),
      DimensionException);
  Matrix<int> b2(3, 4);
  EXPECT_THROW(
      mxm(c, NoMask{}, NoAccumulate{}, ArithmeticSemiring<int>{}, a, b2),
      DimensionException);
}

TEST(Mxm, MaskShapeMismatchThrows) {
  Matrix<int> a(2, 2), b(2, 2), c(2, 2);
  Matrix<bool> mask(3, 3);
  EXPECT_THROW(
      mxm(c, mask, NoAccumulate{}, ArithmeticSemiring<int>{}, a, b),
      DimensionException);
}

TEST(Mxm, AccumulateMergesWithExisting) {
  Matrix<int> a({{1, 0}, {0, 1}});
  Matrix<int> c({{10, 20}, {0, 0}});
  // c += I * I = I under Plus accumulation.
  mxm(c, NoMask{}, Plus<int>{}, ArithmeticSemiring<int>{}, a, a);
  EXPECT_EQ(c.extractElement(0, 0), 11);  // 10 + 1
  EXPECT_EQ(c.extractElement(0, 1), 20);  // untouched (no product there)
  EXPECT_EQ(c.extractElement(1, 1), 1);   // new entry
}

TEST(Mxm, ReplaceClearsMaskedOut) {
  Matrix<int> a({{1, 1}, {1, 1}});
  Matrix<int> c({{5, 5}, {5, 5}});
  Matrix<bool> mask(2, 2);
  mask.setElement(0, 0, true);
  mxm(c, mask, NoAccumulate{}, ArithmeticSemiring<int>{}, a, a,
      OutputControl::kReplace);
  EXPECT_EQ(c.nvals(), 1u);
  EXPECT_EQ(c.extractElement(0, 0), 2);
}

TEST(Mxm, MergeKeepsMaskedOut) {
  Matrix<int> a({{1, 1}, {1, 1}});
  Matrix<int> c({{5, 5}, {5, 5}});
  Matrix<bool> mask(2, 2);
  mask.setElement(0, 0, true);
  mxm(c, mask, NoAccumulate{}, ArithmeticSemiring<int>{}, a, a,
      OutputControl::kMerge);
  EXPECT_EQ(c.nvals(), 4u);
  EXPECT_EQ(c.extractElement(0, 0), 2);
  EXPECT_EQ(c.extractElement(1, 1), 5);
}

TEST(Mxm, TriangleCountPatternMaskedDotKernel) {
  // Fig. 5: B<L> = L +.* L^T on the triangle graph 0-1-2.
  Matrix<int> l(3, 3);
  l.setElement(1, 0, 1);
  l.setElement(2, 0, 1);
  l.setElement(2, 1, 1);
  Matrix<int> b(3, 3);
  mxm(b, l, NoAccumulate{}, ArithmeticSemiring<int>{}, l, transpose(l));
  int tri = 0;
  reduce(tri, NoAccumulate{}, PlusMonoid<int>{}, b);
  EXPECT_EQ(tri, 1);
}

// ---- randomized sweeps over semirings and transposes ----------------------

struct MxmCase {
  double fill_a;
  double fill_b;
  unsigned seed;
  // gtest names each case from a byte dump of the parameter, so the
  // padding is spelled out and zeroed: left implicit it holds stack
  // garbage and the test names change from one build to the next.
  unsigned pad = 0;
};

class MxmRandom : public ::testing::TestWithParam<MxmCase> {};

TEST_P(MxmRandom, MatchesDenseReferenceArithmetic) {
  const auto p = GetParam();
  auto a = random_matrix<int>(13, 11, p.fill_a, p.seed);
  auto b = random_matrix<int>(11, 9, p.fill_b, p.seed + 1);
  Matrix<int> c(13, 9);
  ArithmeticSemiring<int> sr;
  mxm(c, NoMask{}, NoAccumulate{}, sr, a, b);
  EXPECT_TRUE(matches(c, ref_mxm(sr, to_dense(a), to_dense(b))));
}

TEST_P(MxmRandom, MatchesDenseReferenceMinPlus) {
  const auto p = GetParam();
  auto a = random_matrix<double>(10, 10, p.fill_a, p.seed);
  auto b = random_matrix<double>(10, 10, p.fill_b, p.seed + 2);
  Matrix<double> c(10, 10);
  MinPlusSemiring<double> sr;
  mxm(c, NoMask{}, NoAccumulate{}, sr, a, b);
  EXPECT_TRUE(matches(c, ref_mxm(sr, to_dense(a), to_dense(b))));
}

TEST_P(MxmRandom, BTransposedDotKernelMatchesGustavson) {
  const auto p = GetParam();
  auto a = random_matrix<int>(12, 8, p.fill_a, p.seed);
  auto b = random_matrix<int>(10, 8, p.fill_b, p.seed + 3);
  ArithmeticSemiring<int> sr;
  // Dot kernel: C = A * B^T.
  Matrix<int> c_dot(12, 10);
  mxm(c_dot, NoMask{}, NoAccumulate{}, sr, a, transpose(b));
  // Reference: materialize B^T and use the plain kernel.
  auto bt = gbtl::detail::materialize_transpose(b);
  Matrix<int> c_plain(12, 10);
  mxm(c_plain, NoMask{}, NoAccumulate{}, sr, a, bt);
  EXPECT_EQ(c_dot, c_plain);
}

TEST_P(MxmRandom, ATransposedMatchesReference) {
  const auto p = GetParam();
  auto a = random_matrix<int>(8, 12, p.fill_a, p.seed);
  auto b = random_matrix<int>(8, 7, p.fill_b, p.seed + 4);
  ArithmeticSemiring<int> sr;
  Matrix<int> c(12, 7);
  mxm(c, NoMask{}, NoAccumulate{}, sr, transpose(a), b);
  EXPECT_TRUE(
      matches(c, ref_mxm(sr, ref_transpose(to_dense(a)), to_dense(b))));
}

TEST_P(MxmRandom, BothTransposedMatchesReference) {
  const auto p = GetParam();
  auto a = random_matrix<int>(9, 12, p.fill_a, p.seed);
  auto b = random_matrix<int>(7, 9, p.fill_b, p.seed + 5);
  ArithmeticSemiring<int> sr;
  Matrix<int> c(12, 7);
  mxm(c, NoMask{}, NoAccumulate{}, sr, transpose(a), transpose(b));
  EXPECT_TRUE(matches(c, ref_mxm(sr, ref_transpose(to_dense(a)),
                                 ref_transpose(to_dense(b)))));
}

TEST_P(MxmRandom, MaskedComputationEqualsMaskedFullProduct) {
  const auto p = GetParam();
  auto a = random_matrix<int>(10, 10, p.fill_a, p.seed);
  auto b = random_matrix<int>(10, 10, p.fill_b, p.seed + 6);
  auto maskm = random_matrix<bool>(10, 10, 0.4, p.seed + 7, false, true);
  ArithmeticSemiring<int> sr;

  Matrix<int> masked(10, 10);
  mxm(masked, maskm, NoAccumulate{}, sr, a, transpose(b),
      OutputControl::kReplace);

  Matrix<int> full(10, 10);
  mxm(full, NoMask{}, NoAccumulate{}, sr, a, transpose(b));
  for (IndexType i = 0; i < 10; ++i) {
    for (IndexType j = 0; j < 10; ++j) {
      const bool in_mask = maskm.hasElement(i, j) && maskm.extractElement(i, j);
      if (in_mask && full.hasElement(i, j)) {
        EXPECT_EQ(masked.extractElement(i, j), full.extractElement(i, j));
      } else {
        EXPECT_FALSE(masked.hasElement(i, j));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MxmRandom,
    ::testing::Values(MxmCase{0.1, 0.1, 1}, MxmCase{0.3, 0.3, 2},
                      MxmCase{0.5, 0.2, 3}, MxmCase{0.8, 0.8, 4},
                      MxmCase{1.0, 1.0, 5}, MxmCase{0.05, 0.9, 6}));

}  // namespace
