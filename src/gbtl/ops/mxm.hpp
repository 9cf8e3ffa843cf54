// gbtl/ops/mxm.hpp — masked matrix-matrix multiply over a semiring:
//   C<M, z> = C (+) A ⊕.⊗ B
//
// The loops live in gbtl/core.hpp and the dtype-only driver in
// gbtl/detail/drivers.hpp (mxm_driver). Kernel selection:
//   * A, B in row layout      — Gustavson row-at-a-time with an SPA.
//   * B transposed            — dot-product kernel over sorted row pairs;
//                               when a plain (non-complemented) matrix mask
//                               is present only masked-in (i, j) dots are
//                               computed (the triangle-count fast path,
//                               B[L] = L @ L.T of Fig. 5).
//   * A transposed            — A^T is materialized once (O(nnz)) and the
//                               Gustavson kernel is used.
#pragma once

#include <type_traits>

#include "gbtl/core.hpp"
#include "gbtl/detail/drivers.hpp"
#include "gbtl/matrix.hpp"
#include "gbtl/types.hpp"
#include "gbtl/views.hpp"

namespace gbtl {

/// C<M, z> = C (+) A ⊕.⊗ B. A and B may be Matrix or TransposeView;
/// M may be NoMask, a Matrix, or a MatrixComplementView; accum may be
/// NoAccumulate or any binary functor; `outp` selects replace vs merge.
template <typename CT, typename MaskT, typename AccumT, typename SemiringT,
          typename AMatT, typename BMatT>
void mxm(Matrix<CT>& c, const MaskT& mask, AccumT accum, const SemiringT& sr,
         const AMatT& a, const BMatT& b,
         OutputControl outp = OutputControl::kMerge) {
  using AT = typename AMatT::ScalarType;
  using BT = typename BMatT::ScalarType;
  constexpr bool a_trans = is_transpose_view_v<std::remove_cvref_t<AMatT>>;
  constexpr bool b_trans = is_transpose_view_v<std::remove_cvref_t<BMatT>>;
  // Only a plain (non-complemented) matrix mask restricts the dots.
  constexpr bool plain_mask = requires { mask.row(IndexType{0}); };
  const detail::BoolMask<MaskT> m(mask);
  MxmCall call;
  call.c = &c;
  call.a = &detail::stored_matrix(a);
  call.a_ops = detail::operand_ops<AT>();
  call.b = &detail::stored_matrix(b);
  call.b_ops = detail::operand_ops<BT>();
  call.mask = m.arg();
  call.a_transposed = a_trans;
  call.b_transposed = b_trans;
  call.replace = outp == OutputControl::kReplace;
  call.sr = &sr;
  call.core = core::mxm_core<CT, AT, BT, SemiringT, a_trans, b_trans,
                             plain_mask>();
  call.accum = core::mat_accum<CT>(accum);
  detail::mxm_driver<CT>(call);
}

}  // namespace gbtl
