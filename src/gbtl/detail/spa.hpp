// gbtl/detail/spa.hpp — sparse accumulator (SPA) used by the row-at-a-time
// matrix-multiply kernels: a dense value array plus an occupancy flag array
// and a touched-index list, reset in O(touched) between rows.
#pragma once

#include <algorithm>
#include <vector>

#include "gbtl/detail/pool_api.hpp"
#include "gbtl/index.hpp"

namespace gbtl::detail {

template <typename T>
class SparseAccumulator {
 public:
  explicit SparseAccumulator(IndexType size)
      : charge_(size * (sizeof(T) + 1)), vals_(size), occupied_(size, false) {
    touched_.reserve(64);
  }

  /// Accumulate v at position j with the monoid `add`; first touch stores v.
  template <typename AddT>
  void accumulate(IndexType j, const T& v, AddT add) {
    if (occupied_[j]) {
      vals_[j] = add(vals_[j], v);
    } else {
      occupied_[j] = true;
      vals_[j] = v;
      touched_.push_back(j);
    }
  }

  bool occupied(IndexType j) const { return occupied_[j]; }
  const T& value(IndexType j) const { return vals_[j]; }
  std::size_t touched_count() const { return touched_.size(); }

  /// Emit touched (index, value) pairs sorted by index into `out`
  /// (cleared first), then reset the accumulator.
  template <typename Row>
  void extract_sorted_and_reset(Row& out) {
    std::sort(touched_.begin(), touched_.end());
    out.clear();
    out.reserve(touched_.size());
    for (IndexType j : touched_) {
      out.emplace_back(j, vals_[j]);
      occupied_[j] = false;
    }
    touched_.clear();
  }

  /// Append-variant of extract_sorted_and_reset for the L2-tiled multiply:
  /// tiles of one output row arrive left to right, so appending each
  /// sorted tile keeps the whole row sorted. `out` is NOT cleared.
  template <typename Row>
  void extract_sorted_append(Row& out) {
    std::sort(touched_.begin(), touched_.end());
    out.reserve(out.size() + touched_.size());
    for (IndexType j : touched_) {
      out.emplace_back(j, vals_[j]);
      occupied_[j] = false;
    }
    touched_.clear();
  }

  /// Reset without extracting.
  void reset() {
    for (IndexType j : touched_) occupied_[j] = false;
    touched_.clear();
  }

 private:
  // Declared before the arrays so the governor budget charge (which may
  // throw ResourceExhausted) is taken BEFORE the dense allocations happen.
  ScopedMemCharge charge_;
  std::vector<T> vals_;
  std::vector<bool> occupied_;
  std::vector<IndexType> touched_;
};

}  // namespace gbtl::detail
