// Build-time kernel table: assign, extract, transpose.
#include "pygb/jit/glue.hpp"
#include "pygb/jit/static_kernels.hpp"

namespace pygb::jit::static_reg {

namespace {

/// One kernel of container dtype T with accumulator Acc. `with_a` adds the
/// source operand's dtype (everything but the scalar assigns).
template <typename T, typename Acc>
constexpr StaticEntry entry(const char* f, KernelFn fn, MaskKind mk,
                            bool with_a = true) {
  StaticEntry e{.func = f,
                .fn = fn,
                .accum = Acc::descriptor,
                .c = dtype_of<T>(),
                .mask = mk};
  if (with_a) e.a = dtype_of<T>();
  return e;
}

template <typename T, typename Acc, MaskKind MK>
constexpr std::array<StaticEntry, 3> matrix_kernels() {
  using A = typename Acc::template type<T>;
  return {entry<T, Acc>(func::kAssignMM, &run_assign_mm<T, T, MK, A>, MK),
          entry<T, Acc>(func::kExtractMM, &run_extract_mm<T, T, MK, A>, MK),
          entry<T, Acc>(func::kAssignMS, &run_assign_ms<T, MK, A>, MK,
                        /*with_a=*/false)};
}

template <typename T, typename Acc, MaskKind MK>
constexpr std::array<StaticEntry, 3> vector_kernels() {
  using A = typename Acc::template type<T>;
  return {entry<T, Acc>(func::kAssignVV, &run_assign_vv<T, T, MK, A>, MK),
          entry<T, Acc>(func::kExtractVV, &run_extract_vv<T, T, MK, A>, MK),
          entry<T, Acc>(func::kAssignVS, &run_assign_vs<T, MK, A>, MK,
                        /*with_a=*/false)};
}

template <typename T, typename Acc, MaskKind MK>
constexpr std::array<StaticEntry, 1> transpose_kernel() {
  return {entry<T, Acc>(
      func::kTransposeM,
      &run_transpose_m<T, T, false, MK, typename Acc::template type<T>>, MK)};
}

template <typename T, typename Acc>
constexpr auto all_masks() {
  return cat(matrix_kernels<T, Acc, MaskKind::kNone>(),
             matrix_kernels<T, Acc, MaskKind::kMatrix>(),
             matrix_kernels<T, Acc, MaskKind::kMatrixComp>(),
             vector_kernels<T, Acc, MaskKind::kNone>(),
             vector_kernels<T, Acc, MaskKind::kVector>(),
             vector_kernels<T, Acc, MaskKind::kVectorComp>(),
             transpose_kernel<T, Acc, MaskKind::kNone>(),
             transpose_kernel<T, Acc, MaskKind::kMatrix>(),
             transpose_kernel<T, Acc, MaskKind::kMatrixComp>());
}

constexpr auto kTable = cat(
    for_types(DtCore{},
              []<typename T>() {
                return cat(all_masks<T, AccNone>(), all_masks<T, AccPlus>(),
                           all_masks<T, AccMin>(), all_masks<T, AccSecond>());
              }),
    for_types(TypeList<std::int32_t, std::uint64_t, float>{},
              []<typename T>() { return all_masks<T, AccNone>(); }));

}  // namespace

const std::span<const StaticEntry> assign_extract_entries{kTable};

}  // namespace pygb::jit::static_reg
