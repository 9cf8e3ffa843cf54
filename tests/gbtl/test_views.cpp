// Unit tests: transpose and complement views + the mask rule every op
// applies (BoolMask coercion, then the core mask probe).
#include <gtest/gtest.h>

#include "gbtl/gbtl.hpp"

namespace {

using namespace gbtl;  // NOLINT

/// Whether an op writes position (i, j) of a 2x2 output under mask m.
template <typename MaskT>
bool mask_value(const MaskT& m, IndexType i, IndexType j) {
  const detail::BoolMask<MaskT> bm(m);
  return detail::mat_mask(bm.arg(), 2, 2)(i, j);
}

/// Whether an op writes position i of a size-3 output under mask m.
template <typename MaskT>
bool mask_value(const MaskT& m, IndexType i) {
  const detail::BoolMask<MaskT> bm(m);
  return detail::vec_mask(bm.arg(), 3)(i);
}

TEST(Views, TransposeViewAccess) {
  Matrix<int> a({{1, 2, 3}, {4, 5, 6}});
  auto at = transpose(a);
  EXPECT_EQ(at.nrows(), 3u);
  EXPECT_EQ(at.ncols(), 2u);
  EXPECT_EQ(at.nvals(), 6u);
  EXPECT_EQ(at.extractElement(2, 1), 6);
  EXPECT_TRUE(at.hasElement(0, 1));
}

TEST(Views, TransposeOfTransposeIsOriginal) {
  Matrix<int> a({{1, 2}, {3, 4}});
  const auto& back = transpose(transpose(a));
  EXPECT_EQ(&back, &a);
}

TEST(Views, MatrixMaskValueTruthiness) {
  Matrix<int> m(2, 2);
  m.setElement(0, 0, 1);
  m.setElement(0, 1, 0);  // stored zero is NOT a true mask entry
  EXPECT_TRUE(mask_value(m, 0, 0));
  EXPECT_FALSE(mask_value(m, 0, 1));
  EXPECT_FALSE(mask_value(m, 1, 1));  // absent
}

TEST(Views, ComplementInvertsMask) {
  Matrix<int> m(2, 2);
  m.setElement(0, 0, 1);
  auto cm = complement(m);
  EXPECT_FALSE(mask_value(cm, 0, 0));
  EXPECT_TRUE(mask_value(cm, 1, 1));
}

TEST(Views, ComplementOfComplementIsOriginal) {
  Matrix<int> m(2, 2);
  const auto& back = complement(complement(m));
  EXPECT_EQ(&back, &m);
  Vector<int> v(2);
  const auto& vback = complement(complement(v));
  EXPECT_EQ(&vback, &v);
}

TEST(Views, VectorMaskAndComplement) {
  Vector<double> v{0.0, 2.5, 0.0};
  v.setElement(0, 0.0);  // stored zero
  EXPECT_FALSE(mask_value(v, 0));
  EXPECT_TRUE(mask_value(v, 1));
  EXPECT_FALSE(mask_value(v, 2));
  auto cv = complement(v);
  EXPECT_TRUE(mask_value(cv, 0));
  EXPECT_FALSE(mask_value(cv, 1));
}

TEST(Views, NoMaskIsAllTrue) {
  NoMask nm;
  EXPECT_TRUE(mask_value(nm, 0, 0));
  EXPECT_TRUE(mask_value(nm, 123));
}

TEST(Views, MaskShapeChecks) {
  auto check = [](const auto& m) {
    const detail::BoolMask<std::remove_cvref_t<decltype(m)>> bm(m);
    detail::mat_mask(bm.arg(), 2, 3);
  };
  Matrix<bool> good(2, 3);
  Matrix<bool> bad(3, 2);
  EXPECT_NO_THROW(check(good));
  EXPECT_THROW(check(bad), DimensionException);
  EXPECT_THROW(check(complement(bad)), DimensionException);
  EXPECT_NO_THROW(check(NoMask{}));

  Vector<bool> vgood(4);
  Vector<bool> vbad(3);
  EXPECT_NO_THROW(detail::vec_mask(detail::BoolMask(vgood).arg(), 4));
  EXPECT_THROW(detail::vec_mask(detail::BoolMask(vbad).arg(), 4),
               DimensionException);
}

TEST(Views, TraitDetection) {
  static_assert(is_transpose_view_v<TransposeView<Matrix<int>>>);
  static_assert(!is_transpose_view_v<Matrix<int>>);
  static_assert(is_nomask_v<NoMask>);
  static_assert(!is_nomask_v<Matrix<bool>>);
  SUCCEED();
}

}  // namespace
