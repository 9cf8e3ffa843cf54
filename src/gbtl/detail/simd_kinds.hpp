// gbtl/detail/simd_kinds.hpp — which (operator, dtype) pairs the simd
// backend's AVX2 loops (gbtl/detail/simd.hpp) can run. Light on purpose:
// the operator cores (gbtl/core.hpp) name the kind at compile time and
// the dtype-only drivers run the intrinsics, so JIT modules never parse
// <immintrin.h>.
#pragma once

#include <type_traits>

#include "gbtl/algebra.hpp"

namespace gbtl::detail {

// --- which (op, dtype) pairs vectorize -------------------------------------

enum class VecBin : int { kNone = -1, kAdd = 0, kSub, kMul, kDiv };
enum class VecUn : int {
  kNone = -1,
  kCopy = 0,  ///< Identity
  kNeg,       ///< AdditiveInverse (sign-bit flip: exact -x)
  kAddS,      ///< x + s
  kSubS,      ///< x - s
  kRsubS,     ///< s - x
  kMulS,      ///< x * s
  kDivS,      ///< x / s
  kRdivS,     ///< s / x
};

template <typename T>
inline constexpr bool vec_dtype_v =
    std::is_same_v<T, double> || std::is_same_v<T, float>;

template <typename Op, typename T>
struct VecBinOf {
  static constexpr VecBin kind = VecBin::kNone;
};
template <typename T>
struct VecBinOf<Plus<T, T, T>, T> {
  static constexpr VecBin kind = VecBin::kAdd;
};
template <typename T>
struct VecBinOf<Minus<T, T, T>, T> {
  static constexpr VecBin kind = VecBin::kSub;
};
template <typename T>
struct VecBinOf<Times<T, T, T>, T> {
  static constexpr VecBin kind = VecBin::kMul;
};
template <typename T>
struct VecBinOf<Div<T, T, T>, T> {
  static constexpr VecBin kind = VecBin::kDiv;
};

/// Unary-kind extraction for apply: plain Identity/AdditiveInverse, and
/// the BinaryOpBind1st/2nd adaptors over +,-,*,/ (the PageRank teleport
/// `x + s` and damping `x * s` shapes).
template <typename F, typename T>
struct VecUnOf {
  static constexpr VecUn kind = VecUn::kNone;
  static T bound(const F&) { return T{}; }
};
template <typename T>
struct VecUnOf<Identity<T, T>, T> {
  static constexpr VecUn kind = VecUn::kCopy;
  static T bound(const Identity<T, T>&) { return T{}; }
};
template <typename T>
struct VecUnOf<AdditiveInverse<T, T>, T> {
  static constexpr VecUn kind = VecUn::kNeg;
  static T bound(const AdditiveInverse<T, T>&) { return T{}; }
};
template <typename T>
struct VecUnOf<BinaryOpBind2nd<T, Plus<T, T, T>>, T> {
  static constexpr VecUn kind = VecUn::kAddS;
  static T bound(const BinaryOpBind2nd<T, Plus<T, T, T>>& f) {
    return f.bound();
  }
};
template <typename T>
struct VecUnOf<BinaryOpBind2nd<T, Minus<T, T, T>>, T> {
  static constexpr VecUn kind = VecUn::kSubS;
  static T bound(const BinaryOpBind2nd<T, Minus<T, T, T>>& f) {
    return f.bound();
  }
};
template <typename T>
struct VecUnOf<BinaryOpBind2nd<T, Times<T, T, T>>, T> {
  static constexpr VecUn kind = VecUn::kMulS;
  static T bound(const BinaryOpBind2nd<T, Times<T, T, T>>& f) {
    return f.bound();
  }
};
template <typename T>
struct VecUnOf<BinaryOpBind2nd<T, Div<T, T, T>>, T> {
  static constexpr VecUn kind = VecUn::kDivS;
  static T bound(const BinaryOpBind2nd<T, Div<T, T, T>>& f) {
    return f.bound();
  }
};
template <typename T>
struct VecUnOf<BinaryOpBind1st<T, Plus<T, T, T>>, T> {
  static constexpr VecUn kind = VecUn::kAddS;  // s + x == x + s bitwise
  static T bound(const BinaryOpBind1st<T, Plus<T, T, T>>& f) {
    return f.bound();
  }
};
template <typename T>
struct VecUnOf<BinaryOpBind1st<T, Minus<T, T, T>>, T> {
  static constexpr VecUn kind = VecUn::kRsubS;
  static T bound(const BinaryOpBind1st<T, Minus<T, T, T>>& f) {
    return f.bound();
  }
};
template <typename T>
struct VecUnOf<BinaryOpBind1st<T, Times<T, T, T>>, T> {
  static constexpr VecUn kind = VecUn::kMulS;  // s * x == x * s bitwise
  static T bound(const BinaryOpBind1st<T, Times<T, T, T>>& f) {
    return f.bound();
  }
};
template <typename T>
struct VecUnOf<BinaryOpBind1st<T, Div<T, T, T>>, T> {
  static constexpr VecUn kind = VecUn::kRdivS;
  static T bound(const BinaryOpBind1st<T, Div<T, T, T>>& f) {
    return f.bound();
  }
};

}  // namespace gbtl::detail
