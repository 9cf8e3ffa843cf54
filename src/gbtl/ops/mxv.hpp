// gbtl/ops/mxv.hpp — masked matrix-vector and vector-matrix multiply:
//   w<m, z> = w (+) A ⊕.⊗ u        (mxv)
//   w<m, z> = w (+) u ⊕.⊗ A        (vxm)
//
// The loops live in gbtl/core.hpp (mv_pull / mv_push) and the dtype-only
// driver in gbtl/detail/drivers.hpp (mxv_driver). Kernels:
//   * mxv, A row-major       — per-row "pull" dot against u's O(1) lookup.
//   * mxv, A transposed      — "push" scatter over the stored entries of u
//                              (the BFS frontier expansion of Fig. 2:
//                              frontier = graph.T @ frontier).
//   * vxm is mxv with the multiply's argument order swapped, so vxm(A) uses
//     the push kernel and vxm(A^T) the pull kernel.
//
// Under the simd backend (docs/BACKENDS.md) the push-orientation sites are
// DIRECTION-OPTIMIZED: when the input vector is dense enough
// (detail::kMxvPullThreshold, 0.10 of the vector's size) the kernel
// pulls over a cached materialization of A^T instead of scattering — the
// GraphBLAST push/pull heuristic. The two directions are bit-identical by
// construction: push folds contributions into t[j] in ascending stored-i
// order with a first-touch store, and pull over A^T folds row j's entries
// (ascending i, by the transpose-materialization invariant) with the same
// left-fold and the same mult operand order. Each decision is recorded as
// a flight-recorder note and an obs counter (mxv_push_decisions /
// mxv_pull_decisions). The simd backend also pushes vector masks down into
// the kernels: the commit (commit_vector) never reads t at masked-out
// positions, so those entries are legal to skip computing.
#pragma once

#include <type_traits>

#include "gbtl/core.hpp"
#include "gbtl/detail/drivers.hpp"
#include "gbtl/matrix.hpp"
#include "gbtl/types.hpp"
#include "gbtl/vector.hpp"
#include "gbtl/views.hpp"

namespace gbtl {

namespace detail {

template <bool Vxm, typename WT, typename MaskT, typename AccumT,
          typename SemiringT, typename AMatT, typename UT>
void run_mxv(Vector<WT>& w, const MaskT& mask, const AccumT& accum,
             const SemiringT& sr, const AMatT& a, const Vector<UT>& u,
             OutputControl outp) {
  using AT = typename AMatT::ScalarType;
  const BoolMask<MaskT> m(mask);
  MxvCall call;
  call.w = &w;
  call.a = &stored_matrix(a);
  call.a_ops = operand_ops<AT>();
  call.u = &u;
  call.u_ops = operand_ops<UT>();
  call.mask = m.arg();
  call.a_transposed = is_transpose_view_v<std::remove_cvref_t<AMatT>>;
  call.vxm = Vxm;
  call.replace = outp == OutputControl::kReplace;
  call.sr = &sr;
  call.core = core::mv_core<Vxm, WT, AT, UT, SemiringT>();
  call.accum = core::vec_accum<WT>(accum);
  mxv_driver<WT>(call);
}

}  // namespace detail

/// w<m, z> = w (+) A ⊕.⊗ u. A may be a Matrix or TransposeView.
template <typename WT, typename MaskT, typename AccumT, typename SemiringT,
          typename AMatT, typename UT>
void mxv(Vector<WT>& w, const MaskT& mask, AccumT accum, const SemiringT& sr,
         const AMatT& a, const Vector<UT>& u,
         OutputControl outp = OutputControl::kMerge) {
  detail::run_mxv<false>(w, mask, accum, sr, a, u, outp);
}

/// w<m, z> = w (+) u ⊕.⊗ A (row vector times matrix).
template <typename WT, typename MaskT, typename AccumT, typename SemiringT,
          typename UT, typename AMatT>
void vxm(Vector<WT>& w, const MaskT& mask, AccumT accum, const SemiringT& sr,
         const Vector<UT>& u, const AMatT& a,
         OutputControl outp = OutputControl::kMerge) {
  detail::run_mxv<true>(w, mask, accum, sr, a, u, outp);
}

}  // namespace gbtl
