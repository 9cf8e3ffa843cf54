// io/coo.hpp — coordinate-format staging structure shared by all readers
// and writers, plus conversion templates to/from GBTL containers.
#pragma once

#include <string>
#include <vector>

#include "gbtl/matrix.hpp"
#include "gbtl/types.hpp"
#include "gbtl/vector.hpp"

namespace pygb::io {

/// A matrix in coordinate (triplet) form with double-precision staging
/// values; the final container cast happens in build_from<T>.
struct Coo {
  gbtl::IndexType nrows = 0;
  gbtl::IndexType ncols = 0;
  gbtl::IndexArray rows;
  gbtl::IndexArray cols;
  std::vector<double> vals;

  std::size_t nnz() const noexcept { return vals.size(); }
};

/// Replace m's contents with the staged coordinates. The iterator build
/// casts each double value to T as it goes, so no typed copy is staged.
template <typename T>
void build_from(gbtl::Matrix<T>& m, const Coo& coo) {
  if (coo.rows.size() != coo.vals.size() ||
      coo.cols.size() != coo.vals.size()) {
    throw gbtl::InvalidValueException("build arrays must be the same length");
  }
  m.build(coo.rows.begin(), coo.cols.begin(), coo.vals.begin(), coo.nnz());
}

/// Build a typed GBTL matrix from staged coordinates.
template <typename T>
gbtl::Matrix<T> to_matrix(const Coo& coo) {
  gbtl::Matrix<T> m(coo.nrows, coo.ncols);
  build_from(m, coo);
  return m;
}

/// Extract a typed GBTL matrix back into staged coordinates.
template <typename T>
Coo from_matrix(const gbtl::Matrix<T>& m) {
  Coo coo;
  coo.nrows = m.nrows();
  coo.ncols = m.ncols();
  std::vector<T> vals;
  m.extractTuples(coo.rows, coo.cols, vals);
  coo.vals.assign(vals.begin(), vals.end());
  return coo;
}

}  // namespace pygb::io
