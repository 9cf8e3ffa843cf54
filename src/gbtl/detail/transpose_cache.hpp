// gbtl/detail/transpose_cache.hpp — get-or-build a matrix's cached A^T.
//
// The simd backend's pull-direction mxv/vxm iterates rows of A^T. Iterative
// algorithms (PageRank, BFS) hit the same matrix every step, so the
// transpose is materialized once and snapshotted on the source matrix
// (Matrix::transpose_cache). Row-major traversal of A emits entries into
// each output row in ascending source-row order, so every row of the
// result is already sorted.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "gbtl/detail/pool.hpp"
#include "gbtl/matrix.hpp"
#include "gbtl/types.hpp"

namespace gbtl::detail {

/// Materialize the transpose of a sparse matrix (O(nnz + nrows + ncols)).
/// Cancellation/deadline aborts the build at a row checkpoint.
template <typename T>
Matrix<T> materialize_transpose(const Matrix<T>& a) {
  using Row = typename Matrix<T>::Row;
  // Entries move from A's rows to A^T's; charge the transposed copy plus
  // the per-row headers before allocating.
  ScopedMemCharge charge(a.nvals() * sizeof(typename Matrix<T>::Entry) +
                         static_cast<std::size_t>(a.ncols()) * sizeof(Row));
  std::vector<Row> cols(a.ncols());
  {
    // Degree pass so each output row reserves exactly once.
    std::vector<std::size_t> degree(a.ncols(), 0);
    for (IndexType i = 0; i < a.nrows(); ++i) {
      for (const auto& [j, v] : a.row(i)) ++degree[j];
    }
    for (IndexType j = 0; j < a.ncols(); ++j) cols[j].reserve(degree[j]);
  }
  for (IndexType i = 0; i < a.nrows(); ++i) {
    pool_checkpoint();
    for (const auto& [j, v] : a.row(i)) cols[j].emplace_back(i, v);
  }
  Matrix<T> t(a.ncols(), a.nrows());
  for (IndexType j = 0; j < a.ncols(); ++j) {
    if (!cols[j].empty()) t.setRow(j, std::move(cols[j]));
  }
  return t;
}

/// Return a shared snapshot of a's transpose, building (and caching) it on
/// first use. An aborted build installs no cache, so a governor-interrupted
/// op leaves no partial snapshot.
template <typename T>
std::shared_ptr<const Matrix<T>> cached_transpose(const Matrix<T>& a) {
  if (auto hit = a.transpose_cache()) return hit;
  // First writer wins if two threads raced to build.
  return a.set_transpose_cache(
      std::make_shared<Matrix<T>>(materialize_transpose(a)));
}

/// Amortization-aware variant for the mxv/vxm direction optimizer: returns
/// an existing snapshot immediately, but defers the O(nnz) build until the
/// matrix has seen TWO pull-eligible requests (returning null — push
/// instead — on the first). A matrix consumed by a single operation, like
/// PageRank's per-call transition matrix, never pays for a transpose it
/// would traverse once; iterative reuse (BFS plies, multi-step solvers)
/// builds on the second step and pulls from then on.
template <typename T>
std::shared_ptr<const Matrix<T>> cached_transpose_if_amortized(
    const Matrix<T>& a) {
  if (auto hit = a.transpose_cache()) return hit;
  if (a.note_transpose_want() < 2) return nullptr;
  return cached_transpose(a);
}

}  // namespace gbtl::detail
