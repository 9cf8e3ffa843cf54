// Build-time kernel table: assign, extract, transpose.
#include "pygb/jit/static_kernels.hpp"

namespace pygb::jit::static_reg {

namespace {

using gbtl::core::IndexOp;

/// One kernel of output dtype T, source dtype AT (void: a constant
/// assign) and accumulator Acc, into a matrix (M) or a vector.
template <IndexOp Op, bool M, typename T, typename AT, MaskKind MK,
          typename Acc, bool ATrans = false>
constexpr StaticEntry entry(const char* f) {
  using A = typename Acc::template type<T>;
  StaticEntry e{.func = f,
                .fn = &index_entry<Op, M, T, AT, ATrans, MK, A>,
                .accum = Acc::descriptor,
                .c = dtype_of<T>(),
                .mask = MK,
                .a_transposed = ATrans};
  if constexpr (!std::is_void_v<AT>) e.a = dtype_of<AT>();
  return e;
}

using enum IndexOp;

template <typename T, typename Acc, MaskKind MK>
constexpr std::array<StaticEntry, 3> matrix_kernels() {
  return {entry<kAssign, true, T, T, MK, Acc>(func::kAssignMM),
          entry<kExtract, true, T, T, MK, Acc>(func::kExtractMM),
          entry<kAssign, true, T, void, MK, Acc>(func::kAssignMS)};
}

template <typename T, typename Acc, MaskKind MK>
constexpr std::array<StaticEntry, 3> vector_kernels() {
  return {entry<kAssign, false, T, T, MK, Acc>(func::kAssignVV),
          entry<kExtract, false, T, T, MK, Acc>(func::kExtractVV),
          entry<kAssign, false, T, void, MK, Acc>(func::kAssignVS)};
}

/// C = A^T, and C = (A^T)^T for a transposed input.
template <typename T, typename Acc, MaskKind MK>
constexpr std::array<StaticEntry, 2> transpose_kernels() {
  return {entry<kTranspose, true, T, T, MK, Acc>(func::kTransposeM),
          entry<kTranspose, true, T, T, MK, Acc, true>(func::kTransposeM)};
}

/// The casting slice: int32 outputs of fp64 sources, no mask, no
/// accumulator.
template <IndexOp Op, bool M, bool ATrans = false>
constexpr StaticEntry cast_entry(const char* f) {
  return entry<Op, M, std::int32_t, double, MaskKind::kNone, AccNone,
               ATrans>(f);
}

constexpr std::array<StaticEntry, 6> kCastKernels = {
    cast_entry<kAssign, true>(func::kAssignMM),
    cast_entry<kExtract, true>(func::kExtractMM),
    cast_entry<kAssign, false>(func::kAssignVV),
    cast_entry<kExtract, false>(func::kExtractVV),
    cast_entry<kTranspose, true>(func::kTransposeM),
    cast_entry<kTranspose, true, true>(func::kTransposeM)};

template <typename T, typename Acc>
constexpr auto all_masks() {
  return cat(matrix_kernels<T, Acc, MaskKind::kNone>(),
             matrix_kernels<T, Acc, MaskKind::kMatrix>(),
             matrix_kernels<T, Acc, MaskKind::kMatrixComp>(),
             vector_kernels<T, Acc, MaskKind::kNone>(),
             vector_kernels<T, Acc, MaskKind::kVector>(),
             vector_kernels<T, Acc, MaskKind::kVectorComp>(),
             transpose_kernels<T, Acc, MaskKind::kNone>(),
             transpose_kernels<T, Acc, MaskKind::kMatrix>(),
             transpose_kernels<T, Acc, MaskKind::kMatrixComp>());
}

constexpr auto kTable = cat(
    for_types(DtCore{},
              []<typename T>() {
                return cat(all_masks<T, AccNone>(), all_masks<T, AccPlus>(),
                           all_masks<T, AccMin>(), all_masks<T, AccSecond>());
              }),
    for_types(TypeList<std::int32_t, std::uint64_t, float>{},
              []<typename T>() { return all_masks<T, AccNone>(); }),
    kCastKernels);

}  // namespace

const std::span<const StaticEntry> assign_extract_entries{kTable};

}  // namespace pygb::jit::static_reg
