// gbtl/ops/assign.hpp — the assign operation family:
//   C<M, z>(I, J) = C(I, J) (+) A      (matrix into region)
//   C<M, z>(I, J) = C(I, J) (+) s      (constant into region)
//   w<m, z>(I)    = w(I) (+) u         (vector into region)
//   w<m, z>(I)    = w(I) (+) s         (constant into region; BFS's
//                                       levels<frontier> = depth)
// Per the C API, the mask applies to the WHOLE output container (unlike
// subassign); positions outside (I, J) are untouched except for replace
// clearing masked-out entries. A repeated index in I or J takes its last
// occurrence (the C API leaves duplicates in assign undefined).
//
// The cast/scatter loops live in gbtl/core.hpp (scatter_v / scatter_rows)
// and the dtype-only drivers in gbtl/detail/drivers.hpp (assign_v_driver /
// assign_m_driver).
#pragma once

#include "gbtl/core.hpp"
#include "gbtl/detail/drivers.hpp"
#include "gbtl/matrix.hpp"
#include "gbtl/types.hpp"
#include "gbtl/vector.hpp"
#include "gbtl/views.hpp"

namespace gbtl {

/// C<M, z>(I, J) = C(I, J) (+) A. Shape of A must be |I| x |J|.
template <typename CT, typename MaskT, typename AccumT, typename AT,
          typename RowIdxT, typename ColIdxT>
void assign(Matrix<CT>& c, const MaskT& mask, AccumT accum,
            const Matrix<AT>& a, const RowIdxT& rows, const ColIdxT& cols,
            OutputControl outp = OutputControl::kMerge) {
  detail::run_index<core::IndexOp::kAssign>(c, mask, accum, &a, nullptr, rows,
                                            cols, outp);
}

/// C<M, z>(I, J) = C(I, J) (+) s — constant assigned to every masked-in
/// position of the region.
template <typename CT, typename MaskT, typename AccumT, typename ValueT,
          typename RowIdxT, typename ColIdxT>
  requires ScalarType<ValueT>
void assign(Matrix<CT>& c, const MaskT& mask, AccumT accum, ValueT val,
            const RowIdxT& rows, const ColIdxT& cols,
            OutputControl outp = OutputControl::kMerge) {
  const CT v = static_cast<CT>(val);
  detail::run_index<core::IndexOp::kAssign>(
      c, mask, accum, static_cast<const Matrix<CT>*>(nullptr), &v, rows,
      cols, outp);
}

/// w<m, z>(I) = w(I) (+) u. Size of u must be |I|.
template <typename WT, typename MaskT, typename AccumT, typename UT,
          typename IdxT>
void assign(Vector<WT>& w, const MaskT& mask, AccumT accum,
            const Vector<UT>& u, const IdxT& idx,
            OutputControl outp = OutputControl::kMerge) {
  detail::run_index<core::IndexOp::kAssign>(
      w, mask, accum, &u, nullptr, idx, AllIndices{}, outp);
}

/// w<m, z>(I) = w(I) (+) s — Fig. 2's levels<frontier> = depth.
template <typename WT, typename MaskT, typename AccumT, typename ValueT,
          typename IdxT>
  requires ScalarType<ValueT>
void assign(Vector<WT>& w, const MaskT& mask, AccumT accum, ValueT val,
            const IdxT& idx, OutputControl outp = OutputControl::kMerge) {
  const WT v = static_cast<WT>(val);
  detail::run_index<core::IndexOp::kAssign>(
      w, mask, accum, static_cast<const Vector<WT>*>(nullptr), &v,
      idx, AllIndices{}, outp);
}

}  // namespace gbtl
