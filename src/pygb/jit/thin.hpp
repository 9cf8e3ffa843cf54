// pygb/jit/thin.hpp — the light header every single-op JIT module (mxm,
// mxv/vxm, eWiseAdd/eWiseMult, apply, reduce, assign, extract, transpose)
// includes, and the entry points the static kernel table instantiates for
// the same families.
//
// A thin module compiles only what its key decides: the cores of
// gbtl/core.hpp for its operators and dtypes, plus one entry function that
// unpacks KernelArgs into a call block and hands it to the dtype-only
// driver in libpygb. The drivers arrive through the DriverTable the loader
// injects with the PoolApi (v5), so a module never instantiates container
// construction, transpose caching, staging, pool partitioning, the mask
// commit or exceptions. Codon's executePython makes the same choice: it
// compiles a thin wrapper over code the runtime already holds.
//
// The include closure of this header holds no libstdc++ header beyond
// <cstddef> <cstdint> <type_traits> <utility> <limits> <vector>
// <algorithm> (tests/pygb/test_header_hygiene.cpp), and it has its own
// build-time PCH beside glue.hpp's (docs/CACHE.md). User-defined operator
// expressions (§VIII) compiled into a thin module therefore see only those
// headers.
//
// Only fused chains and whole-algorithm (algo_*) keys include glue.hpp,
// which includes this header.
#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>

#include "gbtl/algebra.hpp"
#include "gbtl/core.hpp"
#include "gbtl/detail/pool_api.hpp"
#include "pygb/jit/kernel_args.hpp"

namespace pygb::jit {

// ---------------------------------------------------------------------------
// Identity providers for composed monoids/semirings.
// ---------------------------------------------------------------------------

struct IdZero {
  template <typename T>
  static constexpr T value() {
    return T{0};
  }
};
struct IdOne {
  template <typename T>
  static constexpr T value() {
    return T{1};
  }
};
struct IdTrue {
  template <typename T>
  static constexpr T value() {
    return static_cast<T>(true);
  }
};
struct IdFalse {
  template <typename T>
  static constexpr T value() {
    return static_cast<T>(false);
  }
};
struct IdMaxLimit {
  template <typename T>
  static constexpr T value() {
    return std::numeric_limits<T>::max();
  }
};
struct IdLowestLimit {
  template <typename T>
  static constexpr T value() {
    return std::numeric_limits<T>::lowest();
  }
};

/// Monoid composed from a gbtl binary-op template and an identity provider.
template <typename D3, template <class, class, class> class Op, typename IdT>
struct GenericMonoid {
  using ScalarType = D3;
  static constexpr D3 identity() { return IdT::template value<D3>(); }
  constexpr D3 operator()(const D3& a, const D3& b) const {
    return Op<D3, D3, D3>{}(a, b);
  }
};

/// Semiring composed from add/mult op templates and an identity provider.
template <typename D1, typename D2, typename D3,
          template <class, class, class> class AddOp, typename IdT,
          template <class, class, class> class MultOp>
struct GenericSemiring {
  using ScalarType = D3;
  static constexpr D3 zero() { return IdT::template value<D3>(); }
  constexpr D3 add(const D3& a, const D3& b) const {
    return AddOp<D3, D3, D3>{}(a, b);
  }
  constexpr D3 mult(const D1& a, const D2& b) const {
    return MultOp<D1, D2, D3>{}(a, b);
  }
};

// ---------------------------------------------------------------------------
// Args unpacking helpers.
// ---------------------------------------------------------------------------

/// Read the runtime scalar channel appropriate for T.
template <typename T>
T read_scalar(const KernelArgs* args) {
  if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(args->scalar_f);
  } else {
    return static_cast<T>(args->scalar_i);
  }
}

/// Write a value into all channels of the scalar-out slot.
template <typename T>
void write_scalar_out(const KernelArgs* args, T v) {
  args->scalar_out->f = static_cast<double>(v);
  args->scalar_out->i = static_cast<std::int64_t>(v);
  args->scalar_out->u = static_cast<std::uint64_t>(v);
}

/// Read the scalar-out slot as a seed of type T.
template <typename T>
T read_scalar_seed(const KernelArgs* args) {
  if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(args->scalar_out->f);
  } else if constexpr (std::is_signed_v<T> || std::is_same_v<T, bool>) {
    return static_cast<T>(args->scalar_out->i);
  } else {
    return static_cast<T>(args->scalar_out->u);
  }
}

/// The write mask of a kernel call: args->mask under the key's mask kind.
template <MaskKind MK>
gbtl::MaskArg mask_arg(const KernelArgs* args) {
  if constexpr (MK == MaskKind::kNone) {
    return {};
  } else {
    return {args->mask,
            MK == MaskKind::kMatrixComp || MK == MaskKind::kVectorComp};
  }
}

// Unary-op makers for apply: a plain unary functor, or a binary op with its
// second operand bound to the runtime constant.
template <template <class, class> class UOp>
struct PlainUnary {
  template <typename AT, typename CT>
  static auto make(const KernelArgs*) {
    return UOp<AT, CT>{};
  }
};

template <template <class, class, class> class BOp>
struct BoundSecond {
  template <typename AT, typename CT>
  static auto make(const KernelArgs* args) {
    const CT bound = read_scalar<CT>(args);
    return [bound](const AT& x) {
      return BOp<CT, CT, CT>{}(static_cast<CT>(x), bound);
    };
  }
};

// ---------------------------------------------------------------------------
// The drivers: linked directly in-process, injected into modules.
// ---------------------------------------------------------------------------

inline const gbtl::DriverTable& drivers() noexcept {
#if defined(GBTL_POOL_LINKED)
  return gbtl::host_driver_table();
#else
  const gbtl::detail::PoolApi* api = gbtl::detail::injected_pool_api();
  // load_kernel injects before it returns the kernel; a module run
  // without it has no drivers to call.
  if (api == nullptr || api->drivers == nullptr) __builtin_trap();
  return *api->drivers;
#endif
}

template <typename T>
const gbtl::OperandOps* operand() noexcept {
  return drivers().operands[gbtl::elem_index<T>()];
}

// ---------------------------------------------------------------------------
// Entry points. Template parameter order is uniform: CT (output), AT/BT
// (inputs), operator type(s), transposes, mask kind, accumulator type,
// and the backend (kActive for the static table, which runs under the
// caller's BackendScope; a module bakes the backend of its key).
// ---------------------------------------------------------------------------

using gbtl::CallBackend;

template <typename CT, typename AT, typename BT, typename SemiringT,
          bool ATrans, bool BTrans, MaskKind MK, typename AccumT,
          CallBackend BE = CallBackend::kActive>
void mxm_entry(const KernelArgs* args) {
  const SemiringT sr{};
  const AccumT accum{};
  gbtl::MxmCall call;
  call.c = args->c;
  call.a = args->a;
  call.a_ops = operand<AT>();
  call.b = args->b;
  call.b_ops = operand<BT>();
  call.mask = mask_arg<MK>(args);
  call.a_transposed = ATrans;
  call.b_transposed = BTrans;
  call.replace = args->replace;
  call.backend = BE;
  call.sr = &sr;
  call.core = gbtl::core::mxm_core<CT, AT, BT, SemiringT, ATrans, BTrans,
                                   MK == MaskKind::kMatrix>();
  call.accum = gbtl::core::mat_accum<CT>(accum);
  drivers().mxm[gbtl::elem_index<CT>()](call);
}

/// mxv (Vxm=false: a = matrix AT, b = vector BT) and vxm (Vxm=true:
/// a = vector AT, b = matrix BT); Trans is the matrix operand's transpose.
template <bool Vxm, typename CT, typename AT, typename BT, typename SemiringT,
          bool Trans, MaskKind MK, typename AccumT, CallBackend BE>
void mv_entry(const KernelArgs* args) {
  using MatT = std::conditional_t<Vxm, BT, AT>;
  using VecT = std::conditional_t<Vxm, AT, BT>;
  const SemiringT sr{};
  const AccumT accum{};
  gbtl::MxvCall call;
  call.w = args->c;
  call.a = Vxm ? args->b : args->a;
  call.a_ops = operand<MatT>();
  call.u = Vxm ? args->a : args->b;
  call.u_ops = operand<VecT>();
  call.mask = mask_arg<MK>(args);
  call.a_transposed = Trans;
  call.vxm = Vxm;
  call.replace = args->replace;
  call.backend = BE;
  call.sr = &sr;
  call.core = gbtl::core::mv_core<Vxm, CT, MatT, VecT, SemiringT>();
  call.accum = gbtl::core::vec_accum<CT>(accum);
  drivers().mxv[gbtl::elem_index<CT>()](call);
}

template <typename CT, typename AT, typename BT, typename SemiringT,
          bool ATrans, MaskKind MK, typename AccumT,
          CallBackend BE = CallBackend::kActive>
void mxv_entry(const KernelArgs* args) {
  mv_entry<false, CT, AT, BT, SemiringT, ATrans, MK, AccumT, BE>(args);
}

template <typename CT, typename AT, typename BT, typename SemiringT,
          bool BTrans, MaskKind MK, typename AccumT,
          CallBackend BE = CallBackend::kActive>
void vxm_entry(const KernelArgs* args) {
  mv_entry<true, CT, AT, BT, SemiringT, BTrans, MK, AccumT, BE>(args);
}

template <typename CT, typename AT, typename BT,
          template <class, class, class> class Op, bool IsAdd, bool ATrans,
          bool BTrans, MaskKind MK, typename AccumT,
          CallBackend BE = CallBackend::kActive>
void ewise_mm_entry(const KernelArgs* args) {
  const Op<AT, BT, CT> op{};
  const AccumT accum{};
  gbtl::EwiseMCall call;
  call.c = args->c;
  call.a = args->a;
  call.a_ops = operand<AT>();
  call.b = args->b;
  call.b_ops = operand<BT>();
  call.mask = mask_arg<MK>(args);
  call.a_transposed = ATrans;
  call.b_transposed = BTrans;
  call.replace = args->replace;
  call.backend = BE;
  call.op = &op;
  call.core = gbtl::core::ewise_m_core<IsAdd, CT, AT, BT, Op<AT, BT, CT>>();
  call.accum = gbtl::core::mat_accum<CT>(accum);
  drivers().ewise_m[gbtl::elem_index<CT>()](call);
}

template <typename CT, typename AT, typename BT,
          template <class, class, class> class Op, bool IsAdd, MaskKind MK,
          typename AccumT, CallBackend BE = CallBackend::kActive>
void ewise_vv_entry(const KernelArgs* args) {
  const Op<AT, BT, CT> op{};
  const AccumT accum{};
  gbtl::EwiseVCall call;
  call.w = args->c;
  call.a = args->a;
  call.a_ops = operand<AT>();
  call.b = args->b;
  call.b_ops = operand<BT>();
  call.mask = mask_arg<MK>(args);
  call.is_add = IsAdd;
  call.replace = args->replace;
  call.backend = BE;
  call.op = &op;
  call.core = gbtl::core::ewise_v_core<IsAdd, CT, AT, BT, Op<AT, BT, CT>>();
  call.accum = gbtl::core::vec_accum<CT>(accum);
  drivers().ewise_v[gbtl::elem_index<CT>()](call);
}

template <typename CT, typename AT, typename OpMaker, bool ATrans,
          MaskKind MK, typename AccumT,
          CallBackend BE = CallBackend::kActive>
void apply_m_entry(const KernelArgs* args) {
  const auto f = OpMaker::template make<AT, CT>(args);
  const AccumT accum{};
  gbtl::ApplyMCall call;
  call.c = args->c;
  call.a = args->a;
  call.a_ops = operand<AT>();
  call.mask = mask_arg<MK>(args);
  call.a_transposed = ATrans;
  call.replace = args->replace;
  call.backend = BE;
  call.f = &f;
  call.core = gbtl::core::apply_m_core<CT, AT, std::remove_const_t<decltype(f)>>();
  call.accum = gbtl::core::mat_accum<CT>(accum);
  drivers().apply_m[gbtl::elem_index<CT>()](call);
}

template <typename CT, typename AT, typename OpMaker, MaskKind MK,
          typename AccumT, CallBackend BE = CallBackend::kActive>
void apply_v_entry(const KernelArgs* args) {
  const auto f = OpMaker::template make<AT, CT>(args);
  const AccumT accum{};
  gbtl::ApplyVCall call;
  call.w = args->c;
  call.a = args->a;
  call.a_ops = operand<AT>();
  call.mask = mask_arg<MK>(args);
  call.replace = args->replace;
  call.backend = BE;
  call.f = &f;
  call.core = gbtl::core::apply_v_core<CT, AT>(f);
  call.accum = gbtl::core::vec_accum<CT>(accum);
  drivers().apply_v[gbtl::elem_index<CT>()](call);
}

/// Scalar reductions: the seed (or CT{}) is reduced into and written back
/// through scalar_out.
template <bool Vector, typename CT, typename AT, typename MonoidT,
          bool ATrans, typename AccumT, CallBackend BE>
void reduce_s_entry(const KernelArgs* args) {
  const MonoidT monoid{};
  const AccumT accum{};
  CT val = args->has_scalar_seed ? read_scalar_seed<CT>(args) : CT{};
  gbtl::ReduceSCall call;
  call.val = &val;
  call.a = args->a;
  call.a_ops = operand<AT>();
  call.a_transposed = ATrans;
  call.backend = BE;
  call.monoid = &monoid;
  call.accum = &accum;
  constexpr int d3 = gbtl::elem_index<typename MonoidT::ScalarType>();
  if constexpr (Vector) {
    call.core = gbtl::core::reduce_v_s_core<CT, AT, MonoidT, AccumT>();
    drivers().reduce_v_s[d3](call);
  } else {
    call.core = gbtl::core::reduce_m_s_core<CT, AT, MonoidT, AccumT>();
    drivers().reduce_m_s[d3](call);
  }
  write_scalar_out(args, val);
}

template <typename CT, typename AT, typename MonoidT, bool ATrans,
          typename AccumT, CallBackend BE = CallBackend::kActive>
void reduce_m_s_entry(const KernelArgs* args) {
  reduce_s_entry<false, CT, AT, MonoidT, ATrans, AccumT, BE>(args);
}

template <typename CT, typename AT, typename MonoidT, typename AccumT,
          CallBackend BE = CallBackend::kActive>
void reduce_v_s_entry(const KernelArgs* args) {
  reduce_s_entry<true, CT, AT, MonoidT, false, AccumT, BE>(args);
}

template <typename CT, typename AT, typename MonoidT, bool ATrans,
          MaskKind MK, typename AccumT,
          CallBackend BE = CallBackend::kActive>
void reduce_m_v_entry(const KernelArgs* args) {
  const MonoidT monoid{};
  const AccumT accum{};
  gbtl::ReduceMVCall call;
  call.w = args->c;
  call.a = args->a;
  call.a_ops = operand<AT>();
  call.mask = mask_arg<MK>(args);
  call.a_transposed = ATrans;
  call.replace = args->replace;
  call.monoid = &monoid;
  call.core = gbtl::core::reduce_m_v_core<CT, AT, MonoidT>();
  call.accum = gbtl::core::vec_accum<CT>(accum);
  (void)BE;  // row reduction has no backend-specific path
  drivers().reduce_m_v[gbtl::elem_index<CT>()](call);
}

/// assign, extract or transpose into a matrix (Matrix) or a vector. AT is
/// void for a constant assign, whose value arrives through the scalar
/// channel.
template <gbtl::core::IndexOp Op, bool Matrix, typename CT, typename AT,
          bool ATrans, MaskKind MK, typename AccumT>
void index_entry(const KernelArgs* args) {
  using gbtl::core::IndexOp;
  const AccumT accum{};
  const CT val = read_scalar<CT>(args);
  std::conditional_t<Matrix, gbtl::IndexMCall, gbtl::IndexVCall> call;
  call.c = args->c;
  if constexpr (std::is_void_v<AT>) {
    call.scalar = &val;
  } else {
    call.a = args->a;
    call.a_ops = operand<AT>();
    call.core = gbtl::core::index_core<Op, Matrix, CT, AT, ATrans>();
  }
  call.rows = args->row_indices;
  call.cols = args->col_indices;
  call.mask = mask_arg<MK>(args);
  call.a_transposed = ATrans;
  call.replace = args->replace;
  const gbtl::DriverTable& d = drivers();
  const int e = gbtl::elem_index<CT>();
  if constexpr (Matrix) {
    call.accum = gbtl::core::mat_accum<CT>(accum);
    (Op == IndexOp::kAssign    ? d.assign_m
     : Op == IndexOp::kExtract ? d.extract_m
                               : d.transpose_m)[e](call);
  } else {
    call.accum = gbtl::core::vec_accum<CT>(accum);
    (Op == IndexOp::kAssign ? d.assign_v : d.extract_v)[e](call);
  }
}

// ---------------------------------------------------------------------------
// Kernel entry guard. Generated sources call this as the first statement
// of pygb_kernel: it drops a flight-recorder note (via the injected
// PoolApi, so the event lands in the HOST's rings) and honours the
// "kernel_crash" fault-injection site by dereferencing null FROM MODULE
// CODE — the faulting PC then lies inside the dlopen'd mapping, which is
// exactly what the crash-attribution test needs to exercise the loader's
// module map end to end. Disarmed, it costs two loads.
// ---------------------------------------------------------------------------
inline void kernel_entry_guard(const char* func,
                               std::uint64_t key_hash) noexcept {
  gbtl::detail::pool_flight_note(func, 0, key_hash);
  if (gbtl::detail::pool_fault_check("kernel_crash") != 0) {
    volatile int* crash_here = nullptr;
    *crash_here = 0x7c;  // deliberate SIGSEGV inside the JIT module
  }
}

}  // namespace pygb::jit

// ---------------------------------------------------------------------------
// Pool injection export (JIT modules only).
//
// A generated module is compiled without GBTL_POOL_LINKED, so its hooks
// route through a PoolApi slot that starts null. The loader dlsym's this
// export (gbtl::detail::kPoolInjectSymbol) right after dlopen and hands the
// module the host's function table — the pool, the governor, the flight
// recorder and (v5) the drivers. The ABI version gate keeps a newer host
// from poisoning an older cached module (and vice versa).
// ---------------------------------------------------------------------------
#if !defined(GBTL_POOL_LINKED)
extern "C" void pygb_module_set_pool(const gbtl::detail::PoolApi* api) {
  gbtl::detail::accept_pool_api(api);
}
#endif
