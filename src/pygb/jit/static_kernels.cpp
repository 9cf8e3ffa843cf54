// Build-time kernel tables: the umbrella over the per-translation-unit
// tables, and the descriptor factories their entries point at.
#include "pygb/jit/static_kernels.hpp"

namespace pygb::jit {

std::span<const std::span<const StaticEntry>> static_kernel_tables() {
  static const std::span<const StaticEntry> tables[] = {
      static_reg::mxm_entries,          static_reg::mxv_vxm_entries,
      static_reg::ewise_entries,        static_reg::apply_reduce_entries,
      static_reg::assign_extract_entries, static_reg::algorithm_entries,
  };
  return tables;
}

namespace static_reg {

template <pygb::BinaryOpName Op>
pygb::BinaryOp binary_op() {
  return pygb::BinaryOp(Op);
}

template <pygb::UnaryOpName Op>
pygb::UnaryOp unary_op() {
  return pygb::UnaryOp(Op);
}

template <pygb::BinaryOpName Op, pygb::DType Channel>
pygb::UnaryOp bound_op() {
  return pygb::UnaryOp(Op, pygb::Scalar(0.0, Channel));
}

using B = pygb::BinaryOpName;
using U = pygb::UnaryOpName;
using D = pygb::DType;

template pygb::BinaryOp binary_op<B::kPlus>();
template pygb::BinaryOp binary_op<B::kMinus>();
template pygb::BinaryOp binary_op<B::kTimes>();
template pygb::BinaryOp binary_op<B::kMin>();
template pygb::BinaryOp binary_op<B::kMax>();
template pygb::BinaryOp binary_op<B::kSecond>();
template pygb::BinaryOp binary_op<B::kLogicalOr>();
template pygb::BinaryOp binary_op<B::kLogicalAnd>();
template pygb::UnaryOp unary_op<U::kIdentity>();
template pygb::UnaryOp unary_op<U::kAdditiveInverse>();
template pygb::UnaryOp unary_op<U::kMultiplicativeInverse>();
template pygb::UnaryOp unary_op<U::kLogicalNot>();
template pygb::UnaryOp bound_op<B::kTimes, D::kFP64>();
template pygb::UnaryOp bound_op<B::kTimes, D::kInt64>();
template pygb::UnaryOp bound_op<B::kPlus, D::kFP64>();
template pygb::UnaryOp bound_op<B::kPlus, D::kInt64>();
template pygb::UnaryOp bound_op<B::kMinus, D::kFP64>();
template pygb::UnaryOp bound_op<B::kDiv, D::kFP64>();

}  // namespace static_reg

}  // namespace pygb::jit
