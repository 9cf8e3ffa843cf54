// Build-time kernel table: mxm.
#include "pygb/jit/static_kernels.hpp"

namespace pygb::jit::static_reg {

namespace {

template <typename T, typename Sr, typename Acc, bool ATr, bool BTr,
          MaskKind MK>
constexpr StaticEntry mxm_one() {
  return {.func = func::kMxM,
          .fn = &mxm_entry<T, T, T, typename Sr::template type<T, T, T>, ATr,
                         BTr, MK, typename Acc::template type<T>>,
          .semiring = Sr::descriptor,
          .accum = Acc::descriptor,
          .c = dtype_of<T>(),
          .a = dtype_of<T>(),
          .b = dtype_of<T>(),
          .mask = MK,
          .a_transposed = ATr,
          .b_transposed = BTr};
}

template <typename T, typename Sr, typename Acc, bool ATr, bool BTr>
constexpr std::array<StaticEntry, 3> mxm_masks() {
  return {mxm_one<T, Sr, Acc, ATr, BTr, MaskKind::kNone>(),
          mxm_one<T, Sr, Acc, ATr, BTr, MaskKind::kMatrix>(),
          mxm_one<T, Sr, Acc, ATr, BTr, MaskKind::kMatrixComp>()};
}

template <typename T, typename Sr, typename Acc>
constexpr auto mxm_trans() {
  return cat(mxm_masks<T, Sr, Acc, false, false>(),
             mxm_masks<T, Sr, Acc, false, true>(),
             mxm_masks<T, Sr, Acc, true, false>());
}

constexpr auto kTable = cat(
    for_types(DtCore{},
              []<typename T>() {
                return cat(mxm_trans<T, SrArithmetic, AccNone>(),
                           mxm_trans<T, SrLogical, AccNone>(),
                           mxm_trans<T, SrMinPlus, AccNone>(),
                           // Accumulating mxm (merge into prior product) on
                           // the arithmetic ring.
                           mxm_masks<T, SrArithmetic, AccPlus, false, false>());
              }),
    // int32 homogeneous without transpose variants (tests/examples).
    mxm_masks<std::int32_t, SrArithmetic, AccNone, false, false>(),
    mxm_masks<std::int32_t, SrArithmetic, AccNone, false, true>(),
    mxm_masks<float, SrArithmetic, AccNone, false, false>());

}  // namespace

const std::span<const StaticEntry> mxm_entries{kTable};

}  // namespace pygb::jit::static_reg
