// gbtl/matrix.hpp — sparse Matrix container.
//
// Storage is LIL (list-of-lists): one sorted vector of (column, value)
// entries per row, the same layout as GBTL's LilSparseMatrix backend. This
// gives O(log nnz(row)) element access, cheap row-wise iteration for the
// sparse kernels, and straightforward incremental mutation for assign.
#pragma once

#include <algorithm>
#include <cassert>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <ostream>
#include <utility>
#include <vector>

#include "gbtl/algebra.hpp"
#include "gbtl/types.hpp"

namespace gbtl {

template <ScalarType T>
class Matrix {
 public:
  using ScalarT = T;
  using ScalarType_ = T;  // historical alias used by some templates
  using ScalarType = T;
  /// One stored entry: (column index, value). Rows keep these sorted by
  /// column index with no duplicates.
  using Entry = std::pair<IndexType, T>;
  using Row = std::vector<Entry>;

  Matrix() : nrows_(0), ncols_(0), nvals_(0) {}

  /// Construct an empty (no stored values) nrows x ncols matrix.
  Matrix(IndexType nrows, IndexType ncols)
      : nrows_(nrows), ncols_(ncols), nvals_(0), rows_(nrows) {
    if (nrows == 0 || ncols == 0) {
      throw InvalidValueException("Matrix dimensions must be positive");
    }
  }

  /// Construct from dense 2-D initializer data; `zero` designates the
  /// implied-zero value that is NOT stored (GBTL's dense constructor).
  Matrix(std::initializer_list<std::initializer_list<T>> data, T zero = T{})
      : nrows_(data.size()), nvals_(0) {
    ncols_ = nrows_ ? data.begin()->size() : 0;
    if (nrows_ == 0 || ncols_ == 0) {
      throw InvalidValueException("dense init data must be non-empty");
    }
    rows_.resize(nrows_);
    IndexType i = 0;
    for (const auto& row : data) {
      if (row.size() != ncols_) {
        throw DimensionException("ragged dense init data");
      }
      IndexType j = 0;
      for (const T& v : row) {
        if (v != zero) {
          rows_[i].emplace_back(j, v);
          ++nvals_;
        }
        ++j;
      }
      ++i;
    }
  }

  IndexType nrows() const noexcept { return nrows_; }
  IndexType ncols() const noexcept { return ncols_; }
  std::size_t nvals() const noexcept { return nvals_; }

  /// Remove every stored value, keeping the shape.
  void clear() noexcept {
    invalidate_transpose_cache();
    for (auto& r : rows_) r.clear();
    nvals_ = 0;
  }

  /// Replace the contents with coordinate data. Duplicate (i,j) pairs are
  /// folded left to right in input order: dup(dup(v1, v2), v3). The default
  /// dup, Second, keeps the last value. Strong guarantee: the new rows are
  /// built aside and swapped in at the end, so a bad coordinate (or a
  /// throwing dup or allocation) leaves the previous contents intact.
  ///
  /// A counting build, O(n + nrows) plus a sort of each unsorted row: count
  /// entries per row, reserve each row exactly, append in input order, then
  /// per row stable-sort by column (only if unsorted) and fold duplicates.
  template <typename RAIteratorI, typename RAIteratorJ, typename RAIteratorV,
            typename DupT = Second<T>>
  void build(RAIteratorI i_it, RAIteratorJ j_it, RAIteratorV v_it,
             std::size_t n, DupT dup = DupT{}) {
    std::vector<std::size_t> count(nrows_, 0);
    for (std::size_t k = 0; k < n; ++k) {
      const IndexType i = static_cast<IndexType>(i_it[k]);
      if (i >= nrows_ || static_cast<IndexType>(j_it[k]) >= ncols_) {
        throw IndexOutOfBoundsException("build coordinate outside matrix");
      }
      ++count[i];
    }
    std::vector<Row> rows(nrows_);
    for (IndexType i = 0; i < nrows_; ++i) rows[i].reserve(count[i]);
    for (std::size_t k = 0; k < n; ++k) {
      rows[static_cast<IndexType>(i_it[k])].emplace_back(
          static_cast<IndexType>(j_it[k]), static_cast<T>(v_it[k]));
    }
    const auto by_col = [](const Entry& a, const Entry& b) {
      return a.first < b.first;
    };
    std::size_t nvals = 0;
    for (Row& row : rows) {
      if (row.size() < 2) {
        nvals += row.size();
        continue;
      }
      if (!std::is_sorted(row.begin(), row.end(), by_col)) {
        std::stable_sort(row.begin(), row.end(), by_col);
      }
      std::size_t w = 0;
      for (std::size_t r = 1; r < row.size(); ++r) {
        if (row[r].first == row[w].first) {
          row[w].second = dup(row[w].second, row[r].second);
        } else if (++w != r) {
          row[w] = std::move(row[r]);
        }
      }
      row.erase(row.begin() + static_cast<std::ptrdiff_t>(w + 1), row.end());
      nvals += row.size();
    }
    invalidate_transpose_cache();
    rows_.swap(rows);
    nvals_ = nvals;
  }

  /// Convenience build from index/value vectors.
  template <typename DupT = Second<T>>
  void build(const IndexArray& is, const IndexArray& js,
             const std::vector<T>& vs, DupT dup = DupT{}) {
    if (is.size() != js.size() || js.size() != vs.size()) {
      throw InvalidValueException("build arrays must be the same length");
    }
    build(is.begin(), js.begin(), vs.begin(), is.size(), dup);
  }

  bool hasElement(IndexType i, IndexType j) const {
    check_bounds(i, j);
    const auto& row = rows_[i];
    auto pos = lower_bound_col(row, j);
    return pos != row.end() && pos->first == j;
  }

  /// Return the stored value at (i, j); throws NoValueException if absent.
  T extractElement(IndexType i, IndexType j) const {
    check_bounds(i, j);
    const auto& row = rows_[i];
    auto pos = lower_bound_col(row, j);
    if (pos == row.end() || pos->first != j) {
      throw NoValueException("Matrix::extractElement");
    }
    return pos->second;
  }

  void setElement(IndexType i, IndexType j, const T& v) {
    check_bounds(i, j);
    invalidate_transpose_cache();
    auto& row = rows_[i];
    auto pos = lower_bound_col(row, j);
    if (pos != row.end() && pos->first == j) {
      pos->second = v;
    } else {
      row.insert(pos, {j, v});
      ++nvals_;
    }
  }

  /// Remove the stored value at (i, j) if present (no-op otherwise).
  void removeElement(IndexType i, IndexType j) {
    check_bounds(i, j);
    invalidate_transpose_cache();
    auto& row = rows_[i];
    auto pos = lower_bound_col(row, j);
    if (pos != row.end() && pos->first == j) {
      row.erase(pos);
      --nvals_;
    }
  }

  /// Read-only access to a row's sorted entry list (kernel fast path).
  const Row& row(IndexType i) const {
    assert(i < nrows_);
    return rows_[i];
  }

  /// The row array (nrows() rows), for the operator cores' views.
  const Row* row_data() const noexcept { return rows_.data(); }

  /// The row array for an in-place VALUE update (same contract as
  /// transform_rows: structure unchanged). Invalidates the transpose
  /// snapshot like every mutator.
  Row* rows_for_update() noexcept {
    invalidate_transpose_cache();
    return rows_.data();
  }

  /// Replace a row wholesale with pre-sorted, duplicate-free entries.
  /// Used by the sparse kernels that build outputs row-at-a-time.
  void setRow(IndexType i, Row&& entries) {
    assert(i < nrows_);
    invalidate_transpose_cache();
    assert(std::is_sorted(entries.begin(), entries.end(),
                          [](const Entry& a, const Entry& b) {
                            return a.first < b.first;
                          }));
    nvals_ -= rows_[i].size();
    rows_[i] = std::move(entries);
    nvals_ += rows_[i].size();
  }

  /// Structural + value equality (same shape, same stored entries).
  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ &&
           a.nvals_ == b.nvals_ && a.rows_ == b.rows_;
  }

  // --- cached transpose (backend axis, docs/BACKENDS.md) -------------------
  //
  // The simd backend's direction-optimized mxv/vxm pulls over A^T when the
  // input vector is dense; iterative algorithms (PageRank's per-iteration
  // vxm, BFS's repeated mxv) reuse one materialization. The cache is an
  // immutable snapshot invalidated by every mutator; copies share the
  // mutex but own their cache pointer, so mutating a copy never corrupts
  // the original's snapshot. Concurrent READERS (the lazy-DAG planner runs
  // independent components on pool threads) serialize on the mutex; a
  // mutation concurrent with any other access is a container-contract
  // violation exactly as for rows_ itself.

  /// Current snapshot of this matrix's transpose, or null. The returned
  /// shared_ptr keeps the snapshot alive across later invalidation.
  std::shared_ptr<const Matrix<T>> transpose_cache() const {
    if (!transpose_mu_) return nullptr;  // moved-from survivor
    std::lock_guard<std::mutex> lock(*transpose_mu_);
    return transpose_cache_;
  }

  /// Install a snapshot; first writer wins under contention. Returns the
  /// snapshot actually cached.
  std::shared_ptr<const Matrix<T>> set_transpose_cache(
      std::shared_ptr<const Matrix<T>> t) const {
    if (!transpose_mu_) return t;
    std::lock_guard<std::mutex> lock(*transpose_mu_);
    if (!transpose_cache_) transpose_cache_ = std::move(t);
    return transpose_cache_;
  }

  /// Count one pull-direction request against this matrix and return the
  /// running total. The direction optimizer (ops/mxv.hpp) only pays for a
  /// transpose materialization on the second request, so a matrix consumed
  /// by a single operation never builds a snapshot it would use once.
  unsigned note_transpose_want() const {
    if (!transpose_mu_) return 1;  // moved-from survivor
    std::lock_guard<std::mutex> lock(*transpose_mu_);
    return ++transpose_want_;
  }

  /// Apply `f(i, row)` to every row in place. `f` may overwrite stored
  /// VALUES but must not change the structure (indices, sizes, ordering) —
  /// nvals bookkeeping is not revisited. A mutator like any other: the
  /// transpose snapshot is invalidated.
  template <typename F>
  void transform_rows(F&& f) {
    invalidate_transpose_cache();
    for (IndexType i = 0; i < nrows_; ++i) f(i, rows_[i]);
  }

  /// Extract contents back to coordinate arrays (row-major order).
  void extractTuples(IndexArray& is, IndexArray& js, std::vector<T>& vs) const {
    is.clear();
    js.clear();
    vs.clear();
    is.reserve(nvals_);
    js.reserve(nvals_);
    vs.reserve(nvals_);
    for (IndexType i = 0; i < nrows_; ++i) {
      for (const auto& [j, v] : rows_[i]) {
        is.push_back(i);
        js.push_back(j);
        vs.push_back(v);
      }
    }
  }

  /// Debug printing of the sparse structure.
  friend std::ostream& operator<<(std::ostream& os, const Matrix& m) {
    os << "Matrix " << detail::dim_str(m.nrows_, m.ncols_) << ", nvals="
       << m.nvals_ << "\n";
    for (IndexType i = 0; i < m.nrows_; ++i) {
      for (const auto& [j, v] : m.rows_[i]) {
        os << "  (" << i << "," << j << ") = " << +v << "\n";
      }
    }
    return os;
  }

 private:
  static typename Row::const_iterator lower_bound_col(const Row& row,
                                                      IndexType j) {
    return std::lower_bound(
        row.begin(), row.end(), j,
        [](const Entry& e, IndexType col) { return e.first < col; });
  }
  static typename Row::iterator lower_bound_col(Row& row, IndexType j) {
    return std::lower_bound(
        row.begin(), row.end(), j,
        [](const Entry& e, IndexType col) { return e.first < col; });
  }

  void check_bounds(IndexType i, IndexType j) const {
    if (i >= nrows_ || j >= ncols_) {
      throw IndexOutOfBoundsException("(" + std::to_string(i) + "," +
                                      std::to_string(j) + ") outside " +
                                      detail::dim_str(nrows_, ncols_));
    }
  }

  void invalidate_transpose_cache() noexcept { transpose_cache_.reset(); }

  IndexType nrows_;
  IndexType ncols_;
  std::size_t nvals_;
  std::vector<Row> rows_;
  /// Mutable: logically derived data, maintained from const accessors.
  mutable std::shared_ptr<const Matrix<T>> transpose_cache_;
  /// Pull-direction interest count (guarded by transpose_mu_).
  mutable unsigned transpose_want_ = 0;
  mutable std::shared_ptr<std::mutex> transpose_mu_ =
      std::make_shared<std::mutex>();
};

}  // namespace gbtl
