// pygb/jit/static_kernels.hpp — shared machinery for the build-time kernel
// tables, split across several translation units so the curated set
// compiles in parallel.
//
// The static backend intentionally covers only a curated slice of the
// combination space (the paper's §V point: covering all of it ahead of
// time is intractable — combination_space() quantifies this). Each table
// is a constant array of StaticEntry, computed at compile time; the
// registry builds every entry's key once, with the same OpRequest::key()
// the DSL evaluator uses, so a static hit and a JIT module are
// interchangeable.
#pragma once

#include <array>
#include <cstddef>

#include "pygb/jit/thin.hpp"
#include "pygb/jit/registry.hpp"

// Table entries are written with designated initializers that name only
// the fields a kernel has; the rest keep their defaults on purpose. GCC 12
// still reports those omissions under -Wextra.
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"

namespace pygb::jit::static_reg {

template <typename... Ts>
struct TypeList {};

/// Concatenate entry arrays (at compile time).
template <std::size_t... Ns>
constexpr auto cat(const std::array<StaticEntry, Ns>&... parts) {
  std::array<StaticEntry, (Ns + ... + 0)> out{};
  std::size_t i = 0;
  ((void)[&] {
    for (const StaticEntry& e : parts) out[i++] = e;
  }(), ...);
  return out;
}

/// cat(f.template operator()<T>()...) over the types of a TypeList.
template <typename... Ts, typename F>
constexpr auto for_types(TypeList<Ts...>, F f) {
  return cat(f.template operator()<Ts>()...);
}

/// Wide dtype coverage for cheap kernels (no mask/accumulator variants).
using DtWide = TypeList<bool, std::int8_t, std::int32_t, std::int64_t,
                        std::uint32_t, std::uint64_t, float, double>;
/// Narrow coverage for kernels registered across all mask/accum/transpose
/// variants (the DSL's default dtypes plus bool masks' neighbours).
using DtCore = TypeList<bool, std::int64_t, double>;
/// DtWide minus DtCore: where a DtCore sweep already lists a kernel, the
/// wide list must not list it again (one entry per key).
using DtWideRest = TypeList<std::int8_t, std::int32_t, std::uint32_t,
                            std::uint64_t, float>;

// --- descriptor factories ----------------------------------------------------
//
// Entries point at out-of-line factories: the semiring/monoid builders of
// pygb/operators.cpp and the templates below, explicitly instantiated in
// static_kernels.cpp. Building the keys then runs code from two small
// translation units, not from each kernel translation unit (every code
// page touched there would stay resident for the process's life).

template <pygb::BinaryOpName Op>
pygb::BinaryOp binary_op();
template <pygb::UnaryOpName Op>
pygb::UnaryOp unary_op();
/// bind-2nd of `Op`; only the bound value's dtype channel enters the key.
template <pygb::BinaryOpName Op, pygb::DType Channel>
pygb::UnaryOp bound_op();

// --- semiring specs: descriptor (for the key) + concrete glue type -------

struct SrArithmetic {
  static constexpr pygb::Semiring (*descriptor)() = &pygb::ArithmeticSemiring;
  template <typename A, typename B, typename C>
  using type = GenericSemiring<A, B, C, gbtl::Plus, IdZero, gbtl::Times>;
};
struct SrLogical {
  static constexpr pygb::Semiring (*descriptor)() = &pygb::LogicalSemiring;
  template <typename A, typename B, typename C>
  using type =
      GenericSemiring<A, B, C, gbtl::LogicalOr, IdFalse, gbtl::LogicalAnd>;
};
struct SrMinPlus {
  static constexpr pygb::Semiring (*descriptor)() = &pygb::MinPlusSemiring;
  template <typename A, typename B, typename C>
  using type = GenericSemiring<A, B, C, gbtl::Min, IdMaxLimit, gbtl::Plus>;
};
struct SrMinSelect2nd {
  static constexpr pygb::Semiring (*descriptor)() =
      &pygb::MinSelect2ndSemiring;
  template <typename A, typename B, typename C>
  using type = GenericSemiring<A, B, C, gbtl::Min, IdMaxLimit, gbtl::Second>;
};

// --- monoid specs ---------------------------------------------------------

struct MonPlus {
  static constexpr pygb::Monoid (*descriptor)() = &pygb::PlusMonoid;
  template <typename C>
  using type = GenericMonoid<C, gbtl::Plus, IdZero>;
};
struct MonMin {
  static constexpr pygb::Monoid (*descriptor)() = &pygb::MinMonoid;
  template <typename C>
  using type = GenericMonoid<C, gbtl::Min, IdMaxLimit>;
};
struct MonMax {
  static constexpr pygb::Monoid (*descriptor)() = &pygb::MaxMonoid;
  template <typename C>
  using type = GenericMonoid<C, gbtl::Max, IdLowestLimit>;
};

// --- accumulator specs ------------------------------------------------------

struct AccNone {
  static constexpr pygb::BinaryOp (*descriptor)() = nullptr;
  template <typename C>
  using type = gbtl::NoAccumulate;
};
#define PYGB_ACC_SPEC(NAME)                                              \
  struct Acc##NAME {                                                     \
    static constexpr pygb::BinaryOp (*descriptor)() =                    \
        &binary_op<pygb::BinaryOpName::k##NAME>;                         \
    template <typename C>                                                \
    using type = gbtl::NAME<C, C, C>;                                    \
  };
PYGB_ACC_SPEC(Plus)
PYGB_ACC_SPEC(Min)
PYGB_ACC_SPEC(Second)
#undef PYGB_ACC_SPEC

// --- binary op specs for eWise kernels -------------------------------------

#define PYGB_BOP_SPEC(NAME)                                              \
  struct Bop##NAME {                                                     \
    static constexpr pygb::BinaryOp (*descriptor)() =                    \
        &binary_op<pygb::BinaryOpName::k##NAME>;                         \
    template <typename A, typename B, typename C>                        \
    using type = gbtl::NAME<A, B, C>;                                    \
  };
PYGB_BOP_SPEC(Plus)
PYGB_BOP_SPEC(Minus)
PYGB_BOP_SPEC(Times)
PYGB_BOP_SPEC(Min)
PYGB_BOP_SPEC(Max)
PYGB_BOP_SPEC(LogicalOr)
PYGB_BOP_SPEC(LogicalAnd)
#undef PYGB_BOP_SPEC

// --- the tables (one per translation unit) ---------------------------------
//
// Constant-initialized data, read by static_kernel_tables() (registry.cpp)
// without calling into the kernel translation units.

extern const std::span<const StaticEntry> mxm_entries;
extern const std::span<const StaticEntry> mxv_vxm_entries;
extern const std::span<const StaticEntry> ewise_entries;
extern const std::span<const StaticEntry> apply_reduce_entries;
extern const std::span<const StaticEntry> assign_extract_entries;
extern const std::span<const StaticEntry> algorithm_entries;

}  // namespace pygb::jit::static_reg
