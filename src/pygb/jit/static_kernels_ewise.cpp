// Build-time kernel table: eWiseAdd / eWiseMult, matrix and vector forms.
#include "pygb/jit/static_kernels.hpp"

namespace pygb::jit::static_reg {

namespace {

template <typename T, typename Bop, bool IsAdd, typename Acc, MaskKind MK>
constexpr StaticEntry ewise_mm_one() {
  return {.func = IsAdd ? func::kEWiseAddMM : func::kEWiseMultMM,
          .fn = &ewise_mm_entry<T, T, T, Bop::template type, IsAdd, false,
                              false, MK, typename Acc::template type<T>>,
          .binary_op = Bop::descriptor,
          .accum = Acc::descriptor,
          .c = dtype_of<T>(),
          .a = dtype_of<T>(),
          .b = dtype_of<T>(),
          .mask = MK};
}

template <typename T, typename Bop, bool IsAdd, typename Acc, MaskKind MK>
constexpr StaticEntry ewise_vv_one() {
  return {.func = IsAdd ? func::kEWiseAddVV : func::kEWiseMultVV,
          .fn = &ewise_vv_entry<T, T, T, Bop::template type, IsAdd, MK,
                              typename Acc::template type<T>>,
          .binary_op = Bop::descriptor,
          .accum = Acc::descriptor,
          .c = dtype_of<T>(),
          .a = dtype_of<T>(),
          .b = dtype_of<T>(),
          .mask = MK};
}

template <typename T, typename Bop, typename Acc>
constexpr std::array<StaticEntry, 12> ewise_all_masks() {
  return {ewise_mm_one<T, Bop, true, Acc, MaskKind::kNone>(),
          ewise_mm_one<T, Bop, true, Acc, MaskKind::kMatrix>(),
          ewise_mm_one<T, Bop, true, Acc, MaskKind::kMatrixComp>(),
          ewise_mm_one<T, Bop, false, Acc, MaskKind::kNone>(),
          ewise_mm_one<T, Bop, false, Acc, MaskKind::kMatrix>(),
          ewise_mm_one<T, Bop, false, Acc, MaskKind::kMatrixComp>(),
          ewise_vv_one<T, Bop, true, Acc, MaskKind::kNone>(),
          ewise_vv_one<T, Bop, true, Acc, MaskKind::kVector>(),
          ewise_vv_one<T, Bop, true, Acc, MaskKind::kVectorComp>(),
          ewise_vv_one<T, Bop, false, Acc, MaskKind::kNone>(),
          ewise_vv_one<T, Bop, false, Acc, MaskKind::kVector>(),
          ewise_vv_one<T, Bop, false, Acc, MaskKind::kVectorComp>()};
}

template <typename T, typename Bop>
constexpr std::array<StaticEntry, 4> ewise_plain() {
  return {ewise_mm_one<T, Bop, true, AccNone, MaskKind::kNone>(),
          ewise_mm_one<T, Bop, false, AccNone, MaskKind::kNone>(),
          ewise_vv_one<T, Bop, true, AccNone, MaskKind::kNone>(),
          ewise_vv_one<T, Bop, false, AccNone, MaskKind::kNone>()};
}

constexpr auto kTable = cat(
    for_types(DtCore{},
              []<typename T>() {
                return cat(ewise_all_masks<T, BopPlus, AccNone>(),
                           ewise_all_masks<T, BopMinus, AccNone>(),
                           ewise_all_masks<T, BopTimes, AccNone>(),
                           ewise_all_masks<T, BopMin, AccNone>(),
                           ewise_all_masks<T, BopMax, AccNone>());
              }),
    // Unmasked Plus/Times/Min for the wide dtypes.
    for_types(DtWideRest{},
              []<typename T>() {
                return cat(ewise_plain<T, BopPlus>(),
                           ewise_plain<T, BopTimes>(),
                           ewise_plain<T, BopMin>());
              }),
    for_types(DtWide{},
              []<typename T>() {
                return cat(ewise_plain<T, BopLogicalOr>(),
                           ewise_plain<T, BopLogicalAnd>());
              }));

}  // namespace

const std::span<const StaticEntry> ewise_entries{kTable};

}  // namespace pygb::jit::static_reg
