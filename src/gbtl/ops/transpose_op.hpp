// gbtl/ops/transpose_op.hpp — the transpose *operation* (as opposed to the
// TransposeView in views.hpp):
//   C<M, z> = C (+) A^T
// The flip is a cast/index core (gbtl/core.hpp, flip_rows) under the
// dtype-only transpose_m_driver (gbtl/detail/drivers.hpp).
#pragma once

#include <type_traits>

#include "gbtl/core.hpp"
#include "gbtl/detail/drivers.hpp"
#include "gbtl/matrix.hpp"
#include "gbtl/types.hpp"
#include "gbtl/views.hpp"

namespace gbtl {

/// C<M, z> = C (+) A^T. Passing a TransposeView cancels the transpose
/// (C = A), matching the C API's handling of a transposed input descriptor.
template <typename CT, typename MaskT, typename AccumT, typename AMatT>
void transpose(Matrix<CT>& c, const MaskT& mask, AccumT accum, const AMatT& a,
               OutputControl outp = OutputControl::kMerge) {
  detail::run_index<core::IndexOp::kTranspose,
                    is_transpose_view_v<std::remove_cvref_t<AMatT>>>(
      c, mask, accum, &detail::stored_matrix(a), nullptr, AllIndices{},
      AllIndices{}, outp);
}

}  // namespace gbtl
