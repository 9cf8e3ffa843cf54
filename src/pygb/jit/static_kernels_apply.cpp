// Build-time kernel table: apply (plain + bound unary ops) and reduce.
#include "pygb/jit/static_kernels.hpp"

namespace pygb::jit::static_reg {

namespace {

// Unary-op specs: descriptor + glue op-maker.
#define PYGB_UOP_SPEC(NAME)                                              \
  struct Uop##NAME {                                                     \
    static constexpr pygb::UnaryOp (*descriptor)() =                     \
        &unary_op<pygb::UnaryOpName::k##NAME>;                           \
    using maker = PlainUnary<gbtl::NAME>;                                \
  };
PYGB_UOP_SPEC(Identity)
PYGB_UOP_SPEC(AdditiveInverse)
PYGB_UOP_SPEC(MultiplicativeInverse)
PYGB_UOP_SPEC(LogicalNot)
#undef PYGB_UOP_SPEC

// Bound (bind-2nd) unary specs: the bound value travels at run time; only
// its dtype channel enters the key, so there is one descriptor per channel.
#define PYGB_BOUND_SPEC(NAME)                                            \
  struct Bound##NAME {                                                   \
    template <pygb::DType Channel>                                       \
    static constexpr pygb::UnaryOp (*descriptor)() =                     \
        &bound_op<pygb::BinaryOpName::k##NAME, Channel>;                 \
    using maker = BoundSecond<gbtl::NAME>;                               \
  };
PYGB_BOUND_SPEC(Times)
PYGB_BOUND_SPEC(Plus)
PYGB_BOUND_SPEC(Minus)
PYGB_BOUND_SPEC(Div)
#undef PYGB_BOUND_SPEC

template <typename T, typename Spec, pygb::UnaryOp (*Desc)(), MaskKind MK>
constexpr StaticEntry apply_m_one() {
  return {.func = func::kApplyM,
          .fn = &apply_m_entry<T, T, typename Spec::maker, false, MK,
                             gbtl::NoAccumulate>,
          .unary_op = Desc,
          .c = dtype_of<T>(),
          .a = dtype_of<T>(),
          .mask = MK};
}

template <typename T, typename Spec, pygb::UnaryOp (*Desc)(), MaskKind MK>
constexpr StaticEntry apply_v_one() {
  return {.func = func::kApplyV,
          .fn = &apply_v_entry<T, T, typename Spec::maker, MK,
                             gbtl::NoAccumulate>,
          .unary_op = Desc,
          .c = dtype_of<T>(),
          .a = dtype_of<T>(),
          .mask = MK};
}

/// apply_m and apply_v across the three mask kinds each, no accumulator.
template <typename T, typename Spec, pygb::UnaryOp (*Desc)()>
constexpr std::array<StaticEntry, 6> apply_all() {
  return {apply_m_one<T, Spec, Desc, MaskKind::kNone>(),
          apply_m_one<T, Spec, Desc, MaskKind::kMatrix>(),
          apply_m_one<T, Spec, Desc, MaskKind::kMatrixComp>(),
          apply_v_one<T, Spec, Desc, MaskKind::kNone>(),
          apply_v_one<T, Spec, Desc, MaskKind::kVector>(),
          apply_v_one<T, Spec, Desc, MaskKind::kVectorComp>()};
}

template <typename T, typename Spec>
constexpr auto apply_plain() {
  return apply_all<T, Spec, Spec::descriptor>();
}

template <typename T, typename Spec, pygb::DType Channel>
constexpr auto apply_bound() {
  return apply_all<T, Spec, Spec::template descriptor<Channel>>();
}

template <typename T, typename Mon, typename Acc>
constexpr StaticEntry reduce_one(const char* f, KernelFn fn, MaskKind mk) {
  return {.func = f,
          .fn = fn,
          .monoid = Mon::descriptor,
          .accum = Acc::descriptor,
          .c = dtype_of<T>(),
          .a = dtype_of<T>(),
          .mask = mk};
}

template <typename T, typename Mon, typename Acc>
constexpr std::array<StaticEntry, 5> reduce_all() {
  using M = typename Mon::template type<T>;
  using A = typename Acc::template type<T>;
  return {
      reduce_one<T, Mon, Acc>(func::kReduceMS,
                              &reduce_m_s_entry<T, T, M, false, A>,
                              MaskKind::kNone),
      reduce_one<T, Mon, Acc>(func::kReduceVS, &reduce_v_s_entry<T, T, M, A>,
                              MaskKind::kNone),
      reduce_one<T, Mon, Acc>(
          func::kReduceMV,
          &reduce_m_v_entry<T, T, M, false, MaskKind::kNone, A>,
          MaskKind::kNone),
      reduce_one<T, Mon, Acc>(
          func::kReduceMV,
          &reduce_m_v_entry<T, T, M, false, MaskKind::kVector, A>,
          MaskKind::kVector),
      reduce_one<T, Mon, Acc>(
          func::kReduceMV,
          &reduce_m_v_entry<T, T, M, false, MaskKind::kVectorComp, A>,
          MaskKind::kVectorComp)};
}

constexpr auto kTable = cat(
    for_types(DtCore{},
              []<typename T>() {
                return cat(
                    apply_plain<T, UopIdentity>(),
                    apply_plain<T, UopAdditiveInverse>(),
                    apply_plain<T, UopLogicalNot>(),
                    // Bound ops for both scalar channels (int and float
                    // constants).
                    apply_bound<T, BoundTimes, DType::kFP64>(),
                    apply_bound<T, BoundTimes, DType::kInt64>(),
                    apply_bound<T, BoundPlus, DType::kFP64>(),
                    apply_bound<T, BoundPlus, DType::kInt64>(),
                    apply_bound<T, BoundMinus, DType::kFP64>(),
                    reduce_all<T, MonPlus, AccNone>(),
                    reduce_all<T, MonMin, AccNone>(),
                    reduce_all<T, MonMax, AccNone>(),
                    reduce_all<T, MonPlus, AccPlus>());
              }),
    for_types(TypeList<double, float>{},
              []<typename T>() {
                return cat(apply_plain<T, UopMultiplicativeInverse>(),
                           apply_bound<T, BoundDiv, DType::kFP64>());
              }),
    // Plain reduce for the wide dtypes (cheap kernels).
    for_types(DtWideRest{},
              []<typename T>() { return reduce_all<T, MonPlus, AccNone>(); }));

}  // namespace

const std::span<const StaticEntry> apply_reduce_entries{kTable};

}  // namespace pygb::jit::static_reg
