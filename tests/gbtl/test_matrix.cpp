// Unit tests: gbtl::Matrix container semantics.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "gbtl/gbtl.hpp"

namespace {

using gbtl::IndexArray;
using gbtl::IndexType;
using gbtl::Matrix;

TEST(GbtlMatrix, ConstructEmpty) {
  Matrix<double> m(3, 4);
  EXPECT_EQ(m.nrows(), 3u);
  EXPECT_EQ(m.ncols(), 4u);
  EXPECT_EQ(m.nvals(), 0u);
}

TEST(GbtlMatrix, ZeroDimensionThrows) {
  EXPECT_THROW(Matrix<double>(0, 3), gbtl::InvalidValueException);
  EXPECT_THROW(Matrix<double>(3, 0), gbtl::InvalidValueException);
}

TEST(GbtlMatrix, DenseConstructorSkipsZeros) {
  Matrix<int> m({{1, 0, 2}, {0, 0, 0}, {3, 4, 5}});
  EXPECT_EQ(m.nrows(), 3u);
  EXPECT_EQ(m.ncols(), 3u);
  EXPECT_EQ(m.nvals(), 5u);
  EXPECT_TRUE(m.hasElement(0, 0));
  EXPECT_FALSE(m.hasElement(0, 1));
  EXPECT_EQ(m.extractElement(2, 1), 4);
}

TEST(GbtlMatrix, DenseConstructorCustomZero) {
  // With zero = -1, the -1 entries are treated as implied and not stored.
  Matrix<int> m({{-1, 5}, {7, -1}}, -1);
  EXPECT_EQ(m.nvals(), 2u);
  EXPECT_FALSE(m.hasElement(0, 0));
  EXPECT_EQ(m.extractElement(0, 1), 5);
}

TEST(GbtlMatrix, RaggedDenseThrows) {
  EXPECT_THROW(Matrix<int>({{1, 2}, {3}}), gbtl::DimensionException);
}

TEST(GbtlMatrix, SetGetRemove) {
  Matrix<double> m(2, 2);
  m.setElement(0, 1, 2.5);
  EXPECT_TRUE(m.hasElement(0, 1));
  EXPECT_DOUBLE_EQ(m.extractElement(0, 1), 2.5);
  m.setElement(0, 1, 3.5);  // overwrite keeps nvals
  EXPECT_EQ(m.nvals(), 1u);
  EXPECT_DOUBLE_EQ(m.extractElement(0, 1), 3.5);
  m.removeElement(0, 1);
  EXPECT_EQ(m.nvals(), 0u);
  EXPECT_FALSE(m.hasElement(0, 1));
  m.removeElement(0, 1);  // no-op
  EXPECT_EQ(m.nvals(), 0u);
}

TEST(GbtlMatrix, ExtractMissingThrows) {
  Matrix<double> m(2, 2);
  EXPECT_THROW(m.extractElement(0, 0), gbtl::NoValueException);
}

TEST(GbtlMatrix, OutOfBoundsThrows) {
  Matrix<double> m(2, 2);
  EXPECT_THROW(m.setElement(2, 0, 1.0), gbtl::IndexOutOfBoundsException);
  EXPECT_THROW(m.hasElement(0, 2), gbtl::IndexOutOfBoundsException);
  EXPECT_THROW(m.extractElement(5, 5), gbtl::IndexOutOfBoundsException);
}

TEST(GbtlMatrix, BuildFromCoordinates) {
  Matrix<double> m(3, 3);
  IndexArray is{0, 1, 2, 0};
  IndexArray js{0, 1, 2, 2};
  std::vector<double> vs{1, 2, 3, 9};
  m.build(is, js, vs);
  EXPECT_EQ(m.nvals(), 4u);
  EXPECT_DOUBLE_EQ(m.extractElement(0, 2), 9);
}

TEST(GbtlMatrix, BuildDuplicatesDefaultLastWins) {
  Matrix<int> m(2, 2);
  IndexArray is{0, 0};
  IndexArray js{1, 1};
  std::vector<int> vs{5, 7};
  m.build(is, js, vs);
  EXPECT_EQ(m.nvals(), 1u);
  EXPECT_EQ(m.extractElement(0, 1), 7);
}

TEST(GbtlMatrix, BuildDuplicatesWithPlusDup) {
  Matrix<int> m(2, 2);
  IndexArray is{0, 0, 0};
  IndexArray js{1, 1, 1};
  std::vector<int> vs{5, 7, 1};
  m.build(is, js, vs, gbtl::Plus<int>{});
  EXPECT_EQ(m.extractElement(0, 1), 13);
}

TEST(GbtlMatrix, BuildOutOfRangeThrows) {
  Matrix<int> m(2, 2);
  IndexArray is{2};
  IndexArray js{0};
  std::vector<int> vs{1};
  EXPECT_THROW(m.build(is, js, vs), gbtl::IndexOutOfBoundsException);
}

TEST(GbtlMatrix, FailedBuildLeavesPreviousContents) {
  Matrix<int> m({{1, 0, 2}, {0, 3, 0}});
  const Matrix<int> before = m;
  // The bad coordinate comes last, after entries for every row.
  IndexArray is{0, 1, 1, 0, 2};
  IndexArray js{1, 0, 2, 0, 0};
  std::vector<int> vs{7, 8, 9, 10, 11};
  EXPECT_THROW(m.build(is, js, vs), gbtl::IndexOutOfBoundsException);
  EXPECT_EQ(m, before);
  EXPECT_EQ(m.nvals(), 3u);
  EXPECT_EQ(m.extractElement(0, 2), 2);

  IndexArray bad_col{0, 3};
  IndexArray rows{1, 0};
  std::vector<int> two{5, 6};
  EXPECT_THROW(m.build(rows, bad_col, two), gbtl::IndexOutOfBoundsException);
  EXPECT_EQ(m, before);
}

TEST(GbtlMatrix, BuildFoldsDuplicatesInInputOrderOnAnUnsortedHubRow) {
  // Row 0 is a hub whose columns arrive out of order, with column 5 three
  // times and column 1 twice; a non-commutative dup shows the fold order.
  Matrix<int> m(3, 8);
  IndexArray is{0, 0, 2, 0, 0, 1, 0, 0, 0};
  IndexArray js{5, 1, 7, 5, 6, 3, 1, 0, 5};
  std::vector<int> vs{100, 40, 9, 30, 6, 3, 4, 1, 20};
  m.build(is, js, vs, gbtl::Minus<int>{});
  EXPECT_EQ(m.nvals(), 6u);
  EXPECT_EQ(m.extractElement(0, 5), (100 - 30) - 20);
  EXPECT_EQ(m.extractElement(0, 1), 40 - 4);
  EXPECT_EQ(m.extractElement(0, 0), 1);
  EXPECT_EQ(m.extractElement(0, 6), 6);
  EXPECT_EQ(m.extractElement(1, 3), 3);
  EXPECT_EQ(m.extractElement(2, 7), 9);
  const auto& hub = m.row(0);
  ASSERT_EQ(hub.size(), 4u);
  for (std::size_t k = 1; k < hub.size(); ++k) {
    EXPECT_LT(hub[k - 1].first, hub[k].first);
  }

  // The default dup keeps the last value, whatever the row order.
  m.build(is, js, vs);
  EXPECT_EQ(m.extractElement(0, 5), 20);
  EXPECT_EQ(m.extractElement(0, 1), 4);

  // A hub row long enough that an unstable sort would reorder duplicates,
  // checked against a fold in input order.
  IndexArray hi, hj;
  std::vector<int> hv;
  for (int k = 0; k < 600; ++k) {
    const IndexType j = static_cast<IndexType>((k * 37) % 101);
    hi.push_back(k % 5 == 0 ? 2 : 1);  // row 2 gets a fifth of them
    hj.push_back(j);
    hv.push_back(k * 7 % 23 - 11);
  }
  std::map<std::pair<IndexType, IndexType>, int> fold;
  for (std::size_t k = 0; k < hi.size(); ++k) {
    auto [it, fresh] = fold.try_emplace({hi[k], hj[k]}, hv[k]);
    if (!fresh) it->second = it->second - hv[k];
  }
  Matrix<int> big(3, 101);
  big.build(hi, hj, hv, gbtl::Minus<int>{});
  ASSERT_EQ(big.nvals(), fold.size());
  for (const auto& [ij, v] : fold) {
    EXPECT_EQ(big.extractElement(ij.first, ij.second), v);
  }
}

TEST(GbtlMatrix, BuildFromSortedCoordinatesRoundTrips) {
  // Row-major sorted, duplicate-free input: the shape edge-list adjacency
  // builds hand over.
  IndexArray is, js;
  std::vector<double> vs;
  for (IndexType i = 0; i < 50; ++i) {
    for (IndexType j = i % 3; j < 60; j += 1 + i % 7) {
      is.push_back(i);
      js.push_back(j);
      vs.push_back(static_cast<double>(i * 100 + j) + 0.5);
    }
  }
  Matrix<double> m(50, 60);
  m.build(is, js, vs);
  EXPECT_EQ(m.nvals(), vs.size());
  IndexArray is2, js2;
  std::vector<double> vs2;
  m.extractTuples(is2, js2, vs2);
  EXPECT_EQ(is2, is);
  EXPECT_EQ(js2, js);
  EXPECT_EQ(vs2, vs);

  // Rebuilding replaces the contents rather than merging into them.
  m.build(IndexArray{3}, IndexArray{4}, std::vector<double>{1.0});
  EXPECT_EQ(m.nvals(), 1u);
  EXPECT_DOUBLE_EQ(m.extractElement(3, 4), 1.0);
}

TEST(GbtlMatrix, BuildMismatchedLengthsThrows) {
  Matrix<int> m(2, 2);
  IndexArray is{0, 1};
  IndexArray js{0};
  std::vector<int> vs{1, 2};
  EXPECT_THROW(m.build(is, js, vs), gbtl::InvalidValueException);
}

TEST(GbtlMatrix, ClearKeepsShape) {
  Matrix<int> m({{1, 2}, {3, 4}});
  m.clear();
  EXPECT_EQ(m.nvals(), 0u);
  EXPECT_EQ(m.nrows(), 2u);
  EXPECT_EQ(m.ncols(), 2u);
}

TEST(GbtlMatrix, EqualityStructureAndValues) {
  Matrix<int> a({{1, 0}, {0, 2}});
  Matrix<int> b({{1, 0}, {0, 2}});
  Matrix<int> c({{1, 0}, {0, 3}});
  Matrix<int> d({{1, 2}, {0, 2}});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
}

TEST(GbtlMatrix, ExtractTuplesRowMajorOrder) {
  Matrix<int> m({{0, 1}, {2, 0}});
  IndexArray is, js;
  std::vector<int> vs;
  m.extractTuples(is, js, vs);
  ASSERT_EQ(is.size(), 2u);
  EXPECT_EQ(is[0], 0u);
  EXPECT_EQ(js[0], 1u);
  EXPECT_EQ(vs[0], 1);
  EXPECT_EQ(is[1], 1u);
  EXPECT_EQ(js[1], 0u);
  EXPECT_EQ(vs[1], 2);
}

TEST(GbtlMatrix, SetRowReplacesAndUpdatesNvals) {
  Matrix<int> m({{1, 2}, {3, 4}});
  typename Matrix<int>::Row row{{1, 9}};
  m.setRow(0, std::move(row));
  EXPECT_EQ(m.nvals(), 3u);
  EXPECT_FALSE(m.hasElement(0, 0));
  EXPECT_EQ(m.extractElement(0, 1), 9);
}

TEST(GbtlMatrix, RowsStaySortedUnderRandomInsertion) {
  Matrix<int> m(1, 100);
  for (int j : {57, 3, 99, 0, 42, 17, 88, 5}) {
    m.setElement(0, static_cast<IndexType>(j), j);
  }
  const auto& row = m.row(0);
  for (std::size_t k = 1; k < row.size(); ++k) {
    EXPECT_LT(row[k - 1].first, row[k].first);
  }
}

TEST(GbtlMatrix, BoolMatrixWorks) {
  Matrix<bool> m(2, 2);
  m.setElement(0, 0, true);
  m.setElement(1, 1, false);  // stored false is a stored value
  EXPECT_EQ(m.nvals(), 2u);
  EXPECT_TRUE(m.extractElement(0, 0));
  EXPECT_FALSE(m.extractElement(1, 1));
}

}  // namespace
