// gbtl/ops/apply.hpp — apply a unary function to every stored value:
//   C<M, z> = C (+) f(A)
//   w<m, z> = w (+) f(u)
// The structure of the result is exactly the structure of the input; the
// unary op may change the scalar type (e.g. Identity<T, OutT> casting).
//
// Every stored value maps independently, so both forms run on the worker
// pool with disjoint staging slots and a sequential assembly pass (the
// shared nvals bookkeeping is not thread-safe).
#pragma once

#include <type_traits>

#include "gbtl/core.hpp"
#include "gbtl/detail/drivers.hpp"
#include "gbtl/matrix.hpp"
#include "gbtl/types.hpp"
#include "gbtl/vector.hpp"
#include "gbtl/views.hpp"

namespace gbtl {

/// C<M, z> = C (+) f(A). A may be a Matrix or TransposeView.
template <typename CT, typename MaskT, typename AccumT, typename UnaryOpT,
          typename AMatT>
void apply(Matrix<CT>& c, const MaskT& mask, AccumT accum, const UnaryOpT& f,
           const AMatT& a, OutputControl outp = OutputControl::kMerge) {
  using AT = typename AMatT::ScalarType;
  const detail::BoolMask<MaskT> m(mask);
  ApplyMCall call;
  call.c = &c;
  call.a = &detail::stored_matrix(a);
  call.a_ops = detail::operand_ops<AT>();
  call.mask = m.arg();
  call.a_transposed = is_transpose_view_v<std::remove_cvref_t<AMatT>>;
  call.replace = outp == OutputControl::kReplace;
  call.f = &f;
  call.core = core::apply_m_core<CT, AT, UnaryOpT>();
  call.accum = core::mat_accum<CT>(accum);
  detail::apply_m_driver<CT>(call);
}

/// w<m, z> = w (+) f(u).
template <typename WT, typename MaskT, typename AccumT, typename UnaryOpT,
          typename UT>
void apply(Vector<WT>& w, const MaskT& mask, AccumT accum, const UnaryOpT& f,
           const Vector<UT>& u, OutputControl outp = OutputControl::kMerge) {
  const detail::BoolMask<MaskT> m(mask);
  ApplyVCall call;
  call.w = &w;
  call.a = &u;
  call.a_ops = detail::operand_ops<UT>();
  call.mask = m.arg();
  call.replace = outp == OutputControl::kReplace;
  call.f = &f;
  call.core = core::apply_v_core<WT, UT>(f);
  call.accum = core::vec_accum<WT>(accum);
  detail::apply_v_driver<WT>(call);
}

}  // namespace gbtl
