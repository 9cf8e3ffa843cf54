// gbtl/views.hpp — non-materializing views over containers: transpose of a
// matrix and logical complement of a mask, plus the uniform mask-probing
// interface the operation kernels use.
//
// Per the C API, a mask element is "true" when a value is stored at that
// position and it coerces to boolean true; complement() inverts that
// predicate without copying the container.
#pragma once

#include <type_traits>

#include "gbtl/matrix.hpp"
#include "gbtl/types.hpp"
#include "gbtl/vector.hpp"

namespace gbtl {

// ---------------------------------------------------------------------------
// TransposeView — A.T without copying. Kernels that can exploit the row
// layout of the underlying matrix unwrap it via inner().
// ---------------------------------------------------------------------------

template <typename MatrixT>
class TransposeView {
 public:
  using ScalarType = typename MatrixT::ScalarType;

  explicit TransposeView(const MatrixT& m) : m_(m) {}

  IndexType nrows() const noexcept { return m_.ncols(); }
  IndexType ncols() const noexcept { return m_.nrows(); }
  std::size_t nvals() const noexcept { return m_.nvals(); }

  bool hasElement(IndexType i, IndexType j) const {
    return m_.hasElement(j, i);
  }
  ScalarType extractElement(IndexType i, IndexType j) const {
    return m_.extractElement(j, i);
  }

  const MatrixT& inner() const noexcept { return m_; }

 private:
  const MatrixT& m_;
};

/// GBTL's GB::transpose(A) — view A as its transpose.
template <typename MatrixT>
TransposeView<MatrixT> transpose(const MatrixT& m) {
  return TransposeView<MatrixT>(m);
}

/// Transposing a transpose view yields the underlying matrix again.
template <typename MatrixT>
const MatrixT& transpose(const TransposeView<MatrixT>& v) {
  return v.inner();
}

// ---------------------------------------------------------------------------
// Complement views over masks.
// ---------------------------------------------------------------------------

template <typename MaskT>
class MatrixComplementView {
 public:
  explicit MatrixComplementView(const MaskT& m) : m_(m) {}
  const MaskT& inner() const noexcept { return m_; }
  IndexType nrows() const noexcept { return m_.nrows(); }
  IndexType ncols() const noexcept { return m_.ncols(); }

 private:
  const MaskT& m_;
};

template <typename MaskT>
class VectorComplementView {
 public:
  explicit VectorComplementView(const MaskT& m) : m_(m) {}
  const MaskT& inner() const noexcept { return m_; }
  IndexType size() const noexcept { return m_.size(); }

 private:
  const MaskT& m_;
};

/// GBTL's GB::complement(M) — invert a mask without copying it.
template <typename T>
MatrixComplementView<Matrix<T>> complement(const Matrix<T>& m) {
  return MatrixComplementView<Matrix<T>>(m);
}

template <typename T>
VectorComplementView<Vector<T>> complement(const Vector<T>& v) {
  return VectorComplementView<Vector<T>>(v);
}

/// Complementing a complement yields the original mask.
template <typename MaskT>
const MaskT& complement(const MatrixComplementView<MaskT>& v) {
  return v.inner();
}
template <typename MaskT>
const MaskT& complement(const VectorComplementView<MaskT>& v) {
  return v.inner();
}

// ---------------------------------------------------------------------------
// Trait helpers.
// ---------------------------------------------------------------------------

template <typename X>
struct is_transpose_view : std::false_type {};
template <typename M>
struct is_transpose_view<TransposeView<M>> : std::true_type {};
template <typename X>
inline constexpr bool is_transpose_view_v = is_transpose_view<X>::value;

template <typename X>
struct is_nomask : std::is_same<std::remove_cvref_t<X>, NoMask> {};
template <typename X>
inline constexpr bool is_nomask_v = is_nomask<X>::value;

namespace detail {

/// Shape of a Matrix or TransposeView operand.
template <typename X>
IndexType generic_nrows(const X& x) {
  return x.nrows();
}
template <typename X>
IndexType generic_ncols(const X& x) {
  return x.ncols();
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Uniform mask probing: mask_value(M, i, j) / mask_value(m, i).
// ---------------------------------------------------------------------------

inline constexpr bool mask_value(const NoMask&, IndexType, IndexType) {
  return true;
}
inline constexpr bool mask_value(const NoMask&, IndexType) { return true; }

template <typename U>
bool mask_value(const Matrix<U>& m, IndexType i, IndexType j) {
  return m.hasElement(i, j) && static_cast<bool>(m.extractElement(i, j));
}

template <typename U>
bool mask_value(const Vector<U>& m, IndexType i) {
  return m.hasElement(i) && static_cast<bool>(m.extractElement(i));
}

template <typename MaskT>
bool mask_value(const MatrixComplementView<MaskT>& m, IndexType i,
                IndexType j) {
  return !mask_value(m.inner(), i, j);
}

template <typename MaskT>
bool mask_value(const VectorComplementView<MaskT>& m, IndexType i) {
  return !mask_value(m.inner(), i);
}

// ---------------------------------------------------------------------------
// Mask shape validation (dimensions must match output when a mask is given).
// ---------------------------------------------------------------------------

template <typename CMatT>
void check_mask_shape(const NoMask&, const CMatT&) {}

template <typename U, typename CMatT>
void check_mask_shape(const Matrix<U>& m, const CMatT& c) {
  if (m.nrows() != c.nrows() || m.ncols() != c.ncols()) {
    throw DimensionException("mask shape does not match output");
  }
}

template <typename MaskT, typename CMatT>
void check_mask_shape(const MatrixComplementView<MaskT>& m, const CMatT& c) {
  check_mask_shape(m.inner(), c);
}

template <typename CVecT>
void check_vec_mask_shape(const NoMask&, const CVecT&) {}

template <typename U, typename CVecT>
void check_vec_mask_shape(const Vector<U>& m, const CVecT& c) {
  if (m.size() != c.size()) {
    throw DimensionException("mask size does not match output");
  }
}

template <typename MaskT, typename CVecT>
void check_vec_mask_shape(const VectorComplementView<MaskT>& m,
                          const CVecT& c) {
  check_vec_mask_shape(m.inner(), c);
}

}  // namespace gbtl
