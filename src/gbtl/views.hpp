// gbtl/views.hpp — non-materializing views over containers: transpose of a
// matrix and logical complement of a mask.
//
// Per the C API, a mask element is "true" when a value is stored at that
// position and it coerces to boolean true; complement() inverts that
// predicate without copying the container. The ops apply masks through
// detail::BoolMask and core::VecMask / core::MatMask (gbtl/core.hpp).
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

}  // namespace gbtl
