// gbtl/ops/ewise.hpp — element-wise operations:
//   eWiseAdd  : union of structures, ⊕ where both stored  (C = A + B)
//   eWiseMult : intersection of structures, ⊗              (C = A * B)
// for matrix-matrix and vector-vector operand pairs, with the standard
// mask/accumulate/replace output discipline. Transposed matrix inputs are
// materialized first (they are rare in practice and the C API permits them).
//
// Rows (matrix forms) and index blocks (vector forms) are independent, so
// the merge loops run on the worker pool: each worker writes disjoint
// staging slots and the result container is assembled sequentially
// afterwards (Vector/Matrix nvals bookkeeping is not thread-safe).
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

template <bool IsAdd, typename CT, typename MaskT, typename AccumT,
          typename BinaryOpT, typename AMatT, typename BMatT>
void run_ewise(Matrix<CT>& c, const MaskT& mask, const AccumT& accum,
               const BinaryOpT& op, const AMatT& a, const BMatT& b,
               OutputControl outp) {
  using AT = typename AMatT::ScalarType;
  using BT = typename BMatT::ScalarType;
  const BoolMask<MaskT> m(mask);
  EwiseMCall call;
  call.c = &c;
  call.a = &stored_matrix(a);
  call.a_ops = operand_ops<AT>();
  call.b = &stored_matrix(b);
  call.b_ops = operand_ops<BT>();
  call.mask = m.arg();
  call.a_transposed = is_transpose_view_v<std::remove_cvref_t<AMatT>>;
  call.b_transposed = is_transpose_view_v<std::remove_cvref_t<BMatT>>;
  call.replace = outp == OutputControl::kReplace;
  call.op = &op;
  call.core = core::ewise_m_core<IsAdd, CT, AT, BT, BinaryOpT>();
  call.accum = core::mat_accum<CT>(accum);
  ewise_m_driver<CT>(call);
}

template <bool IsAdd, typename WT, typename MaskT, typename AccumT,
          typename BinaryOpT, typename UT, typename VT>
void run_ewise(Vector<WT>& w, const MaskT& mask, const AccumT& accum,
               const BinaryOpT& op, const Vector<UT>& u, const Vector<VT>& v,
               OutputControl outp) {
  const BoolMask<MaskT> m(mask);
  EwiseVCall call;
  call.w = &w;
  call.a = &u;
  call.a_ops = operand_ops<UT>();
  call.b = &v;
  call.b_ops = operand_ops<VT>();
  call.mask = m.arg();
  call.is_add = IsAdd;
  call.replace = outp == OutputControl::kReplace;
  call.op = &op;
  call.core = core::ewise_v_core<IsAdd, WT, UT, VT, BinaryOpT>();
  call.accum = core::vec_accum<WT>(accum);
  ewise_v_driver<WT>(call);
}

}  // namespace detail

/// C<M, z> = C (+) (A ⊕ B): union structure, op where both stored.
/// The op may be a BinaryOp, a Monoid, or a Semiring's add (monoids and
/// semirings are callable as binary ops on their scalar type).
template <typename CT, typename MaskT, typename AccumT, typename BinaryOpT,
          typename AMatT, typename BMatT>
void eWiseAdd(Matrix<CT>& c, const MaskT& mask, AccumT accum,
              const BinaryOpT& op, const AMatT& a, const BMatT& b,
              OutputControl outp = OutputControl::kMerge) {
  detail::run_ewise<true>(c, mask, accum, op, a, b, outp);
}

/// w<m, z> = w (+) (u ⊕ v).
template <typename WT, typename MaskT, typename AccumT, typename BinaryOpT,
          typename UT, typename VT>
void eWiseAdd(Vector<WT>& w, const MaskT& mask, AccumT accum,
              const BinaryOpT& op, const Vector<UT>& u, const Vector<VT>& v,
              OutputControl outp = OutputControl::kMerge) {
  detail::run_ewise<true>(w, mask, accum, op, u, v, outp);
}

/// C<M, z> = C (+) (A ⊗ B): intersection structure.
template <typename CT, typename MaskT, typename AccumT, typename BinaryOpT,
          typename AMatT, typename BMatT>
void eWiseMult(Matrix<CT>& c, const MaskT& mask, AccumT accum,
               const BinaryOpT& op, const AMatT& a, const BMatT& b,
               OutputControl outp = OutputControl::kMerge) {
  detail::run_ewise<false>(c, mask, accum, op, a, b, outp);
}

/// w<m, z> = w (+) (u ⊗ v).
template <typename WT, typename MaskT, typename AccumT, typename BinaryOpT,
          typename UT, typename VT>
void eWiseMult(Vector<WT>& w, const MaskT& mask, AccumT accum,
               const BinaryOpT& op, const Vector<UT>& u, const Vector<VT>& v,
               OutputControl outp = OutputControl::kMerge) {
  detail::run_ewise<false>(w, mask, accum, op, u, v, outp);
}

}  // namespace gbtl
