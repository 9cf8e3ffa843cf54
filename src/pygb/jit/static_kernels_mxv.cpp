// Build-time kernel table: mxv and vxm (vector mask kinds).
#include "pygb/jit/static_kernels.hpp"

namespace pygb::jit::static_reg {

namespace {

template <typename CT, typename AT, typename BT, typename Sr, typename Acc,
          bool ATr, MaskKind MK>
constexpr StaticEntry mxv_one() {
  return {.func = func::kMxV,
          .fn = &mxv_entry<CT, AT, BT, typename Sr::template type<AT, BT, CT>,
                         ATr, MK, typename Acc::template type<CT>>,
          .semiring = Sr::descriptor,
          .accum = Acc::descriptor,
          .c = dtype_of<CT>(),
          .a = dtype_of<AT>(),
          .b = dtype_of<BT>(),
          .mask = MK,
          .a_transposed = ATr};
}

template <typename CT, typename AT, typename BT, typename Sr, typename Acc,
          bool BTr, MaskKind MK>
constexpr StaticEntry vxm_one() {
  return {.func = func::kVxM,
          .fn = &vxm_entry<CT, AT, BT, typename Sr::template type<AT, BT, CT>,
                         BTr, MK, typename Acc::template type<CT>>,
          .semiring = Sr::descriptor,
          .accum = Acc::descriptor,
          .c = dtype_of<CT>(),
          .a = dtype_of<AT>(),
          .b = dtype_of<BT>(),
          .mask = MK,
          .b_transposed = BTr};
}

template <typename CT, typename AT, typename BT, typename Sr, typename Acc,
          bool Tr>
constexpr std::array<StaticEntry, 6> mv_masks() {
  return {mxv_one<CT, AT, BT, Sr, Acc, Tr, MaskKind::kNone>(),
          mxv_one<CT, AT, BT, Sr, Acc, Tr, MaskKind::kVector>(),
          mxv_one<CT, AT, BT, Sr, Acc, Tr, MaskKind::kVectorComp>(),
          vxm_one<CT, BT, AT, Sr, Acc, Tr, MaskKind::kNone>(),
          vxm_one<CT, BT, AT, Sr, Acc, Tr, MaskKind::kVector>(),
          vxm_one<CT, BT, AT, Sr, Acc, Tr, MaskKind::kVectorComp>()};
}

template <typename T, typename Sr, typename Acc>
constexpr auto mv_full() {
  return cat(mv_masks<T, T, T, Sr, Acc, false>(),
             mv_masks<T, T, T, Sr, Acc, true>());
}

constexpr auto kTable = cat(
    for_types(DtCore{},
              []<typename T>() {
                // Realistic semiring/accumulator pairings from the paper's
                // algorithms.
                return cat(mv_full<T, SrArithmetic, AccNone>(),
                           mv_full<T, SrArithmetic, AccPlus>(),
                           mv_full<T, SrArithmetic, AccSecond>(),
                           mv_full<T, SrLogical, AccNone>(),
                           mv_full<T, SrMinPlus, AccNone>(),
                           mv_full<T, SrMinPlus, AccMin>(),
                           mv_full<T, SrMinSelect2nd, AccMin>());
              }),
    // Heterogeneous BFS frontier expansion: boolean frontier over a
    // weighted graph (c = bool, a = graph dtype, b = bool) under the
    // logical semiring.
    for_types(TypeList<std::int32_t, std::int64_t, float, double>{},
              []<typename AT>() {
                return cat(mv_masks<bool, AT, bool, SrLogical, AccNone, true>(),
                           mv_masks<bool, AT, bool, SrLogical, AccNone,
                                    false>());
              }),
    // float / int32 cores without the full sweep.
    mv_full<float, SrArithmetic, AccNone>(),
    mv_full<std::int32_t, SrArithmetic, AccNone>());

}  // namespace

const std::span<const StaticEntry> mxv_vxm_entries{kTable};

}  // namespace pygb::jit::static_reg
