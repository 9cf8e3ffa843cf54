// gbtl/ops/reduce.hpp — monoid reductions:
//   w<m, z> = w (+) [⊕_j A(:, j)]   (matrix rows → vector)
//   s = s (+) [⊕_{i,j} A(i, j)]     (matrix → scalar)
//   s = s (+) [⊕_i u(i)]            (vector → scalar)
// Column reduction is expressed by passing transpose(A). A row (or the whole
// container) with no stored values contributes no entry / leaves s as-is.
//
// Parallel discipline: workers fold fixed partials (one per matrix row, one
// per kScalarReduceTile-sized vector tile) into disjoint staging slots; the
// partials are then combined left-to-right in a sequential tail on the
// caller. The partial structure does not depend on the worker count or
// schedule, so scalar results are bit-identical for every GBTL_NUM_THREADS
// — including floating-point monoids, whose grouping is fixed by the
// row/tile boundaries rather than by the partition.
#pragma once

#include <type_traits>

#include "gbtl/core.hpp"
#include "gbtl/detail/drivers.hpp"
#include "gbtl/matrix.hpp"
#include "gbtl/types.hpp"
#include "gbtl/vector.hpp"
#include "gbtl/views.hpp"

namespace gbtl {

/// Row-wise reduce of a matrix into a vector.
template <typename WT, typename MaskT, typename AccumT, typename MonoidT,
          typename AMatT>
void reduce(Vector<WT>& w, const MaskT& mask, AccumT accum,
            const MonoidT& monoid, const AMatT& a,
            OutputControl outp = OutputControl::kMerge) {
  using AT = typename AMatT::ScalarType;
  static_assert(std::is_convertible_v<typename MonoidT::ScalarType, WT>,
                "reduce: the monoid's type must convert to the output's");
  const detail::BoolMask<MaskT> m(mask);
  ReduceMVCall call;
  call.w = &w;
  call.a = &detail::stored_matrix(a);
  call.a_ops = detail::operand_ops<AT>();
  call.mask = m.arg();
  call.a_transposed = is_transpose_view_v<std::remove_cvref_t<AMatT>>;
  call.replace = outp == OutputControl::kReplace;
  call.monoid = &monoid;
  call.core = core::reduce_m_v_core<WT, AT, MonoidT>();
  call.accum = core::vec_accum<WT>(accum);
  detail::reduce_m_v_driver<WT>(call);
}

/// Reduce a whole matrix into a scalar. With NoAccumulate the result
/// replaces `val`; with an accumulator it is combined into `val`. If the
/// matrix stores no values, `val` is left unchanged (GrB_NO_VALUE-like
/// behaviour matching GBTL).
template <typename ValueT, typename AccumT, typename MonoidT, typename AMatT>
void reduce(ValueT& val, AccumT accum, const MonoidT& monoid, const AMatT& a) {
  using AT = typename AMatT::ScalarType;
  ReduceSCall call;
  call.val = &val;
  call.a = &detail::stored_matrix(a);
  call.a_ops = detail::operand_ops<AT>();
  call.a_transposed = is_transpose_view_v<std::remove_cvref_t<AMatT>>;
  call.monoid = &monoid;
  call.accum = &accum;
  call.core = core::reduce_m_s_core<ValueT, AT, MonoidT, AccumT>();
  detail::reduce_m_s_driver<typename MonoidT::ScalarType>(call);
}

/// Reduce a vector into a scalar (same conventions as the matrix overload).
template <typename ValueT, typename AccumT, typename MonoidT, typename UT>
void reduce(ValueT& val, AccumT accum, const MonoidT& monoid,
            const Vector<UT>& u) {
  ReduceSCall call;
  call.val = &val;
  call.a = &u;
  call.a_ops = detail::operand_ops<UT>();
  call.monoid = &monoid;
  call.accum = &accum;
  call.core = core::reduce_v_s_core<ValueT, UT, MonoidT, AccumT>();
  detail::reduce_v_s_driver<typename MonoidT::ScalarType>(call);
}

}  // namespace gbtl
