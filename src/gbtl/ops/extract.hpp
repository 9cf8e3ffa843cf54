// gbtl/ops/extract.hpp — the extract operation family:
//   C<M, z> = C (+) A(I, J)   (submatrix; I/J may repeat indices)
//   w<m, z> = w (+) u(I)      (subvector)
//   w<m, z> = w (+) A(I, j)   (matrix column; pass transpose(A) for a row)
//
// The cast/gather loops live in gbtl/core.hpp (gather_v / gather_rows) and
// the dtype-only drivers in gbtl/detail/drivers.hpp (extract_v_driver /
// extract_m_driver).
#pragma once

#include "gbtl/core.hpp"
#include "gbtl/detail/drivers.hpp"
#include "gbtl/matrix.hpp"
#include "gbtl/types.hpp"
#include "gbtl/vector.hpp"
#include "gbtl/views.hpp"

namespace gbtl {

/// C<M, z> = C (+) A(I, J). Output shape must be |I| x |J|.
template <typename CT, typename MaskT, typename AccumT, typename AT,
          typename RowIdxT, typename ColIdxT>
void extract(Matrix<CT>& c, const MaskT& mask, AccumT accum,
             const Matrix<AT>& a, const RowIdxT& rows, const ColIdxT& cols,
             OutputControl outp = OutputControl::kMerge) {
  detail::run_index<core::IndexOp::kExtract>(c, mask, accum, &a, nullptr, rows,
                                             cols, outp);
}

/// w<m, z> = w (+) u(I). Output size must be |I|.
template <typename WT, typename MaskT, typename AccumT, typename UT,
          typename IdxT>
void extract(Vector<WT>& w, const MaskT& mask, AccumT accum,
             const Vector<UT>& u, const IdxT& idx,
             OutputControl outp = OutputControl::kMerge) {
  detail::run_index<core::IndexOp::kExtract>(
      w, mask, accum, &u, nullptr, idx, AllIndices{}, outp);
}

/// w<m, z> = w (+) A(I, j) — extract (part of) column j of A. Pass
/// transpose(A) to extract a row.
template <typename WT, typename MaskT, typename AccumT, typename AMatT,
          typename IdxT>
void extract(Vector<WT>& w, const MaskT& mask, AccumT accum, const AMatT& a,
             const IdxT& idx, IndexType col,
             OutputControl outp = OutputControl::kMerge) {
  if (col >= a.ncols()) {
    throw IndexOutOfBoundsException("extract: column outside matrix");
  }
  // Column j as a vector over A's rows, then a subvector extract.
  Vector<typename AMatT::ScalarType> column(a.nrows());
  if constexpr (is_transpose_view_v<AMatT>) {
    for (const auto& [i, v] : a.inner().row(col)) column.setElement(i, v);
  } else {
    for (IndexType i = 0; i < a.nrows(); ++i) {
      if (a.hasElement(i, col)) column.setElement(i, a.extractElement(i, col));
    }
  }
  extract(w, mask, accum, column, idx, outp);
}

}  // namespace gbtl
