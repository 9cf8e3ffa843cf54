// Tests: gbtl::mxv / gbtl::vxm — pull and push kernels, transposed
// operands, masks, accumulators, and the Fig. 1 BFS ply.
#include <gtest/gtest.h>

#include "reference.hpp"

namespace {

using namespace gbtl;  // NOLINT
using testref::matches;
using testref::random_matrix;
using testref::random_vector;
using testref::ref_mxv;
using testref::ref_transpose;
using testref::to_dense;

TEST(Mxv, KnownSmallProduct) {
  Matrix<int> a({{1, 2}, {3, 4}});
  Vector<int> u{5, 6};
  Vector<int> w(2);
  mxv(w, NoMask{}, NoAccumulate{}, ArithmeticSemiring<int>{}, a, u);
  EXPECT_EQ(w.extractElement(0), 17);
  EXPECT_EQ(w.extractElement(1), 39);
}

TEST(Mxv, Fig1BfsPly) {
  // Fig. 1: one ply of BFS from source vertex 4 (1-based) = index 3.
  // Directed edges of the example graph.
  Matrix<bool> a(7, 7);
  const std::pair<int, int> edges[] = {{0, 1}, {0, 3}, {1, 4}, {1, 6},
                                       {2, 5}, {3, 0}, {3, 2}, {3, 5},
                                       {4, 5}, {5, 2}, {6, 2}, {6, 3}};
  for (auto [s, d] : edges) a.setElement(s, d, true);
  Vector<bool> v(7);
  v.setElement(3, true);
  Vector<bool> next(7);
  // v^T A == A^T v: neighbours of vertex 3 -> {0, 2, 5}.
  mxv(next, NoMask{}, NoAccumulate{}, LogicalSemiring<bool>{}, transpose(a),
      v);
  EXPECT_EQ(next.nvals(), 3u);
  EXPECT_TRUE(next.extractElement(0));
  EXPECT_TRUE(next.extractElement(2));
  EXPECT_TRUE(next.extractElement(5));
}

TEST(Mxv, EmptyInputGivesEmptyOutput) {
  Matrix<int> a({{1, 2}, {3, 4}});
  Vector<int> u(2);  // no stored values
  Vector<int> w(2);
  mxv(w, NoMask{}, NoAccumulate{}, ArithmeticSemiring<int>{}, a, u);
  EXPECT_EQ(w.nvals(), 0u);
}

TEST(Mxv, DimensionMismatchThrows) {
  Matrix<int> a(2, 3);
  Vector<int> u(2), w(2);
  EXPECT_THROW(
      mxv(w, NoMask{}, NoAccumulate{}, ArithmeticSemiring<int>{}, a, u),
      DimensionException);
  Vector<int> u3(3), w3(3);
  EXPECT_THROW(
      mxv(w3, NoMask{}, NoAccumulate{}, ArithmeticSemiring<int>{}, a, u3),
      DimensionException);
}

TEST(Mxv, AccumulatorMin) {
  // The SSSP relaxation step: w = w min (A min.+ u).
  Matrix<double> a(2, 2);
  a.setElement(0, 1, 5.0);
  Vector<double> w{10.0, 3.0};
  Vector<double> u{0.0, 2.0};
  u.setElement(0, 0.0);  // ensure stored zero at index 0
  mxv(w, NoMask{}, Min<double>{}, MinPlusSemiring<double>{}, a, u);
  // Row 0 dot: a(0,1)+u(1) = 7 -> min(10, 7) = 7. Row 1: empty -> keeps 3.
  EXPECT_DOUBLE_EQ(w.extractElement(0), 7.0);
  EXPECT_DOUBLE_EQ(w.extractElement(1), 3.0);
}

TEST(Mxv, OutputAliasedWithInputIsSafe) {
  // frontier = A^T frontier with the same vector on both sides.
  Matrix<bool> a(3, 3);
  a.setElement(0, 1, true);
  a.setElement(1, 2, true);
  Vector<bool> f(3);
  f.setElement(0, true);
  mxv(f, NoMask{}, NoAccumulate{}, LogicalSemiring<bool>{}, transpose(a), f,
      OutputControl::kReplace);
  EXPECT_EQ(f.nvals(), 1u);
  EXPECT_TRUE(f.extractElement(1));
}

TEST(Vxm, KnownSmallProduct) {
  Matrix<int> a({{1, 2}, {3, 4}});
  Vector<int> u{5, 6};
  Vector<int> w(2);
  vxm(w, NoMask{}, NoAccumulate{}, ArithmeticSemiring<int>{}, u, a);
  EXPECT_EQ(w.extractElement(0), 23);  // 5*1 + 6*3
  EXPECT_EQ(w.extractElement(1), 34);  // 5*2 + 6*4
}

TEST(Vxm, EqualsMxvOfTranspose) {
  auto a = random_matrix<int>(9, 7, 0.4, 11);
  auto u = random_vector<int>(9, 0.6, 12);
  Vector<int> w1(7), w2(7);
  vxm(w1, NoMask{}, NoAccumulate{}, ArithmeticSemiring<int>{}, u, a);
  mxv(w2, NoMask{}, NoAccumulate{}, ArithmeticSemiring<int>{}, transpose(a),
      u);
  EXPECT_TRUE(w1 == w2);
}

TEST(Vxm, NonCommutativeMultUsesVectorAsLeftOperand) {
  // With the Second multiply, vxm picks the matrix value (right operand);
  // mxv(transpose) with the same semiring would pick the vector value.
  Matrix<int> a(2, 2);
  a.setElement(0, 1, 42);
  Vector<int> u(2);
  u.setElement(0, 7);
  Vector<int> w(2);
  vxm(w, NoMask{}, NoAccumulate{}, MinSelect2ndSemiring<int>{}, u, a);
  EXPECT_EQ(w.extractElement(1), 42);

  Vector<int> w2(2);
  mxv(w2, NoMask{}, NoAccumulate{}, MinSelect2ndSemiring<int>{},
      transpose(a), u);
  EXPECT_EQ(w2.extractElement(1), 7);
}

// ---- randomized sweeps -----------------------------------------------------

struct MvCase {
  double fill_a;
  double fill_u;
  unsigned seed;
  // gtest names each case from a byte dump of the parameter, so the
  // padding is spelled out and zeroed: left implicit it holds stack
  // garbage and the test names change from one build to the next.
  unsigned pad = 0;
};

class MxvRandom : public ::testing::TestWithParam<MvCase> {};

TEST_P(MxvRandom, PullKernelMatchesReference) {
  const auto p = GetParam();
  auto a = random_matrix<int>(15, 12, p.fill_a, p.seed);
  auto u = random_vector<int>(12, p.fill_u, p.seed + 1);
  Vector<int> w(15);
  ArithmeticSemiring<int> sr;
  mxv(w, NoMask{}, NoAccumulate{}, sr, a, u);
  EXPECT_TRUE(matches(w, ref_mxv(sr, to_dense(a), to_dense(u))));
}

TEST_P(MxvRandom, PushKernelMatchesReference) {
  const auto p = GetParam();
  auto a = random_matrix<int>(12, 15, p.fill_a, p.seed);
  auto u = random_vector<int>(12, p.fill_u, p.seed + 2);
  Vector<int> w(15);
  ArithmeticSemiring<int> sr;
  mxv(w, NoMask{}, NoAccumulate{}, sr, transpose(a), u);
  EXPECT_TRUE(matches(w, ref_mxv(sr, ref_transpose(to_dense(a)),
                                 to_dense(u))));
}

TEST_P(MxvRandom, MaskedReplaceAndMergeSemantics) {
  const auto p = GetParam();
  auto a = random_matrix<int>(10, 10, p.fill_a, p.seed);
  auto u = random_vector<int>(10, p.fill_u, p.seed + 3);
  auto w0 = random_vector<int>(10, 0.5, p.seed + 4);
  auto mask = random_vector<bool>(10, 0.5, p.seed + 5, false, true);
  ArithmeticSemiring<int> sr;

  Vector<int> full(10);
  mxv(full, NoMask{}, NoAccumulate{}, sr, a, u);

  for (auto outp : {OutputControl::kMerge, OutputControl::kReplace}) {
    Vector<int> w = w0;
    mxv(w, mask, NoAccumulate{}, sr, a, u, outp);
    for (IndexType i = 0; i < 10; ++i) {
      if (mask.hasElement(i) && mask.extractElement(i)) {
        EXPECT_EQ(w.hasElement(i), full.hasElement(i));
        if (full.hasElement(i)) {
          EXPECT_EQ(w.extractElement(i), full.extractElement(i));
        }
      } else if (outp == OutputControl::kMerge) {
        EXPECT_EQ(w.hasElement(i), w0.hasElement(i));
        if (w0.hasElement(i)) {
          EXPECT_EQ(w.extractElement(i), w0.extractElement(i));
        }
      } else {
        EXPECT_FALSE(w.hasElement(i));
      }
    }
  }
}

TEST_P(MxvRandom, VxmTransposedMatchesPlainMxv) {
  const auto p = GetParam();
  auto a = random_matrix<int>(11, 9, p.fill_a, p.seed);
  auto u = random_vector<int>(9, p.fill_u, p.seed + 6);
  Vector<int> w1(11), w2(11);
  ArithmeticSemiring<int> sr;
  vxm(w1, NoMask{}, NoAccumulate{}, sr, u, transpose(a));
  mxv(w2, NoMask{}, NoAccumulate{}, sr, a, u);
  EXPECT_TRUE(w1 == w2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MxvRandom,
    ::testing::Values(MvCase{0.1, 0.3, 21}, MvCase{0.4, 0.6, 22},
                      MvCase{0.7, 0.2, 23}, MvCase{1.0, 1.0, 24},
                      MvCase{0.3, 0.05, 25}));

}  // namespace
