// gbtl/ops/kronecker.hpp — Kronecker product (the GrB_kronecker companion
// operation added to GraphBLAS after the paper's C API 1.x; included here
// because it composes directly with the generators: Kronecker powers of a
// small initiator matrix are the Graph500 graph model):
//
//   C<M, z> = C (+) A ⊗kron B,   C(ia*nb + ib, ja*mb + jb) = op(A(ia,ja),
//                                                               B(ib,jb))
//
// The ⊗ loop is a core (gbtl/core.hpp, kron_rows) under the eWise matrix
// driver (gbtl/detail/drivers.hpp); no JIT key reaches it.
#pragma once

#include <type_traits>

#include "gbtl/core.hpp"
#include "gbtl/detail/drivers.hpp"
#include "gbtl/matrix.hpp"
#include "gbtl/types.hpp"
#include "gbtl/views.hpp"

namespace gbtl {

/// C<M, z> = C (+) kron(A, B) with ⊗ = `op`. A and B may be transpose
/// views (kron(A^T, B^T) == kron(A, B)^T is NOT applied automatically; the
/// views are materialized).
template <typename CT, typename MaskT, typename AccumT, typename BinaryOpT,
          typename AMatT, typename BMatT>
void kronecker(Matrix<CT>& c, const MaskT& mask, AccumT accum,
               const BinaryOpT& op, const AMatT& a, const BMatT& b,
               OutputControl outp = OutputControl::kMerge) {
  using AT = typename AMatT::ScalarType;
  using BT = typename BMatT::ScalarType;
  const detail::BoolMask<MaskT> m(mask);
  EwiseMCall call;
  call.c = &c;
  call.a = &detail::stored_matrix(a);
  call.a_ops = detail::operand_ops<AT>();
  call.b = &detail::stored_matrix(b);
  call.b_ops = detail::operand_ops<BT>();
  call.mask = m.arg();
  call.a_transposed = is_transpose_view_v<std::remove_cvref_t<AMatT>>;
  call.b_transposed = is_transpose_view_v<std::remove_cvref_t<BMatT>>;
  call.replace = outp == OutputControl::kReplace;
  call.kron = true;
  call.op = &op;
  call.core.rows = &core::kron_rows<CT, AT, BT, BinaryOpT>;
  call.accum = core::mat_accum<CT>(accum);
  detail::ewise_m_driver<CT>(call);
}

}  // namespace gbtl
