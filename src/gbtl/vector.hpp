// gbtl/vector.hpp — sparse Vector container.
//
// Storage is bitmap + dense values, the layout of GBTL's BitmapSparseVector:
// a presence bitmap plus a value array of full length. This trades memory
// for O(1) random access, which the mxv/vxm and assign kernels rely on.
#pragma once

#include <algorithm>
#include <cassert>
#include <initializer_list>
#include <ostream>
#include <vector>

#include "gbtl/algebra.hpp"
#include "gbtl/types.hpp"

namespace gbtl {

template <ScalarType T>
class Vector {
 public:
  using ScalarT = T;
  using ScalarType = T;

  Vector() : size_(0), nvals_(0) {}

  /// Construct an empty (no stored values) vector of the given size.
  explicit Vector(IndexType size)
      : size_(size), nvals_(0), bitmap_(size, false), vals_(size) {
    if (size == 0) {
      throw InvalidValueException("Vector size must be positive");
    }
  }

  /// Construct from dense data; `zero` designates the implied-zero value
  /// that is NOT stored.
  Vector(std::initializer_list<T> data, T zero = T{})
      : size_(data.size()), nvals_(0), bitmap_(data.size(), false),
        vals_(data.size()) {
    if (size_ == 0) {
      throw InvalidValueException("dense init data must be non-empty");
    }
    IndexType i = 0;
    for (const T& v : data) {
      if (v != zero) {
        bitmap_[i] = true;
        vals_[i] = v;
        ++nvals_;
      }
      ++i;
    }
  }

  IndexType size() const noexcept { return size_; }
  std::size_t nvals() const noexcept { return nvals_; }

  void clear() noexcept {
    std::fill(bitmap_.begin(), bitmap_.end(), false);
    nvals_ = 0;
  }

  /// Populate from (index, value) coordinate data; duplicates combined by
  /// `dup` (default: last value wins).
  template <typename RAIteratorI, typename RAIteratorV,
            typename DupT = Second<T>>
  void build(RAIteratorI i_it, RAIteratorV v_it, std::size_t n,
             DupT dup = DupT{}) {
    clear();
    for (std::size_t k = 0; k < n; ++k, ++i_it, ++v_it) {
      const IndexType i = static_cast<IndexType>(*i_it);
      const T v = static_cast<T>(*v_it);
      if (i >= size_) {
        throw IndexOutOfBoundsException("build index outside vector");
      }
      if (bitmap_[i]) {
        vals_[i] = dup(vals_[i], v);
      } else {
        bitmap_[i] = true;
        vals_[i] = v;
        ++nvals_;
      }
    }
  }

  template <typename DupT = Second<T>>
  void build(const IndexArray& is, const std::vector<T>& vs,
             DupT dup = DupT{}) {
    if (is.size() != vs.size()) {
      throw InvalidValueException("build arrays must be the same length");
    }
    build(is.begin(), vs.begin(), is.size(), dup);
  }

  bool hasElement(IndexType i) const {
    check_bounds(i);
    return bitmap_[i];
  }

  /// Return the stored value at i; throws NoValueException if absent.
  T extractElement(IndexType i) const {
    check_bounds(i);
    if (!bitmap_[i]) throw NoValueException("Vector::extractElement");
    return vals_[i];
  }

  void setElement(IndexType i, const T& v) {
    check_bounds(i);
    if (!bitmap_[i]) {
      bitmap_[i] = true;
      ++nvals_;
    }
    vals_[i] = v;
  }

  /// Remove the stored value at i if present (no-op otherwise).
  void removeElement(IndexType i) {
    check_bounds(i);
    if (bitmap_[i]) {
      bitmap_[i] = false;
      --nvals_;
    }
  }

  /// Unchecked fast-path accessors for kernels (asserted in debug builds).
  bool has_unchecked(IndexType i) const {
    assert(i < size_);
    return bitmap_[i];
  }
  T value_unchecked(IndexType i) const {
    assert(i < size_ && bitmap_[i]);
    return vals_[i];
  }
  void set_unchecked(IndexType i, const T& v) {
    assert(i < size_);
    if (!bitmap_[i]) {
      bitmap_[i] = true;
      ++nvals_;
    }
    vals_[i] = v;
  }

  /// Presence bitmap and full-length value array, for the operator cores'
  /// views (positions without a stored value hold unspecified data).
  const std::vector<bool>& bitmap() const noexcept { return bitmap_; }
  const std::vector<T>& values() const noexcept { return vals_; }

  friend bool operator==(const Vector& a, const Vector& b) {
    if (a.size_ != b.size_ || a.nvals_ != b.nvals_) return false;
    for (IndexType i = 0; i < a.size_; ++i) {
      if (a.bitmap_[i] != b.bitmap_[i]) return false;
      if (a.bitmap_[i] && a.vals_[i] != b.vals_[i]) return false;
    }
    return true;
  }

  /// Extract contents back to coordinate arrays (index order).
  void extractTuples(IndexArray& is, std::vector<T>& vs) const {
    is.clear();
    vs.clear();
    is.reserve(nvals_);
    vs.reserve(nvals_);
    for (IndexType i = 0; i < size_; ++i) {
      if (bitmap_[i]) {
        is.push_back(i);
        vs.push_back(vals_[i]);
      }
    }
  }

  friend std::ostream& operator<<(std::ostream& os, const Vector& v) {
    os << "Vector size=" << v.size_ << ", nvals=" << v.nvals_ << "\n";
    for (IndexType i = 0; i < v.size_; ++i) {
      if (v.bitmap_[i]) os << "  (" << i << ") = " << +v.vals_[i] << "\n";
    }
    return os;
  }

 private:
  void check_bounds(IndexType i) const {
    if (i >= size_) {
      throw IndexOutOfBoundsException("(" + std::to_string(i) +
                                      ") outside vector of size " +
                                      std::to_string(size_));
    }
  }

  IndexType size_;
  std::size_t nvals_;
  std::vector<bool> bitmap_;
  std::vector<T> vals_;
};

}  // namespace gbtl
