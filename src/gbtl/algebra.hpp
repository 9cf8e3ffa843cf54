// gbtl/algebra.hpp — the operator algebra of GBTL's algebra.hpp: the four
// unary operators and seventeen binary operators of PyGB Fig. 6, monoids
// (binary op + identity), and semirings (add monoid + multiply op).
//
// Everything here is a stateless (or value-capturing) functor so that the
// compiler can inline the whole semiring into the sparse kernels; this is
// the "no runtime cost for generic typing" property the paper relies on.
#pragma once

#include <algorithm>
#include <limits>
#include <type_traits>

#include "gbtl/index.hpp"

namespace gbtl {

// ---------------------------------------------------------------------------
// Unary operators (Fig. 6: Identity, AdditiveInverse, MultiplicativeInverse,
// LogicalNot). Each is templated on distinct argument/result types so that
// `apply` can cast, mirroring GBTL's Identity<T, OutT>.
// ---------------------------------------------------------------------------

template <typename T, typename OutT = T>
struct Identity {
  constexpr OutT operator()(const T& v) const {
    return static_cast<OutT>(v);
  }
};

template <typename T, typename OutT = T>
struct AdditiveInverse {
  constexpr OutT operator()(const T& v) const {
    return static_cast<OutT>(-static_cast<OutT>(v));
  }
};

template <typename T, typename OutT = T>
struct MultiplicativeInverse {
  constexpr OutT operator()(const T& v) const {
    return static_cast<OutT>(static_cast<OutT>(1) / static_cast<OutT>(v));
  }
};

template <typename T, typename OutT = T>
struct LogicalNot {
  constexpr OutT operator()(const T& v) const {
    return static_cast<OutT>(!static_cast<bool>(v));
  }
};

// ---------------------------------------------------------------------------
// Binary operators (Fig. 6). Signature: (T1, T2) -> OutT with the common
// homogeneous default. Division by zero follows C++ semantics (UB for
// integers avoided by callers; IEEE inf for floats).
// ---------------------------------------------------------------------------

template <typename T1, typename T2 = T1, typename OutT = T1>
struct Plus {
  constexpr OutT operator()(const T1& a, const T2& b) const {
    return static_cast<OutT>(a + b);
  }
};

template <typename T1, typename T2 = T1, typename OutT = T1>
struct Minus {
  constexpr OutT operator()(const T1& a, const T2& b) const {
    return static_cast<OutT>(a - b);
  }
};

template <typename T1, typename T2 = T1, typename OutT = T1>
struct Times {
  constexpr OutT operator()(const T1& a, const T2& b) const {
    return static_cast<OutT>(a * b);
  }
};

template <typename T1, typename T2 = T1, typename OutT = T1>
struct Div {
  constexpr OutT operator()(const T1& a, const T2& b) const {
    return static_cast<OutT>(a / b);
  }
};

template <typename T1, typename T2 = T1, typename OutT = T1>
struct Min {
  constexpr OutT operator()(const T1& a, const T2& b) const {
    // std::min over the common type; result cast to OutT.
    using CT = std::common_type_t<T1, T2>;
    return static_cast<OutT>(
        std::min<CT>(static_cast<CT>(a), static_cast<CT>(b)));
  }
};

template <typename T1, typename T2 = T1, typename OutT = T1>
struct Max {
  constexpr OutT operator()(const T1& a, const T2& b) const {
    using CT = std::common_type_t<T1, T2>;
    return static_cast<OutT>(
        std::max<CT>(static_cast<CT>(a), static_cast<CT>(b)));
  }
};

/// Returns the first argument (GraphBLAS FIRST — select left operand).
template <typename T1, typename T2 = T1, typename OutT = T1>
struct First {
  constexpr OutT operator()(const T1& a, const T2&) const {
    return static_cast<OutT>(a);
  }
};

/// Returns the second argument (GraphBLAS SECOND — select right operand).
template <typename T1, typename T2 = T1, typename OutT = T1>
struct Second {
  constexpr OutT operator()(const T1&, const T2& b) const {
    return static_cast<OutT>(b);
  }
};

template <typename T1, typename T2 = T1, typename OutT = T1>
struct LogicalOr {
  constexpr OutT operator()(const T1& a, const T2& b) const {
    return static_cast<OutT>(static_cast<bool>(a) || static_cast<bool>(b));
  }
};

template <typename T1, typename T2 = T1, typename OutT = T1>
struct LogicalAnd {
  constexpr OutT operator()(const T1& a, const T2& b) const {
    return static_cast<OutT>(static_cast<bool>(a) && static_cast<bool>(b));
  }
};

template <typename T1, typename T2 = T1, typename OutT = T1>
struct LogicalXor {
  constexpr OutT operator()(const T1& a, const T2& b) const {
    return static_cast<OutT>(static_cast<bool>(a) != static_cast<bool>(b));
  }
};

template <typename T1, typename T2 = T1, typename OutT = bool>
struct Equal {
  constexpr OutT operator()(const T1& a, const T2& b) const {
    return static_cast<OutT>(a == b);
  }
};

template <typename T1, typename T2 = T1, typename OutT = bool>
struct NotEqual {
  constexpr OutT operator()(const T1& a, const T2& b) const {
    return static_cast<OutT>(a != b);
  }
};

template <typename T1, typename T2 = T1, typename OutT = bool>
struct GreaterThan {
  constexpr OutT operator()(const T1& a, const T2& b) const {
    return static_cast<OutT>(a > b);
  }
};

template <typename T1, typename T2 = T1, typename OutT = bool>
struct LessThan {
  constexpr OutT operator()(const T1& a, const T2& b) const {
    return static_cast<OutT>(a < b);
  }
};

template <typename T1, typename T2 = T1, typename OutT = bool>
struct GreaterEqual {
  constexpr OutT operator()(const T1& a, const T2& b) const {
    return static_cast<OutT>(a >= b);
  }
};

template <typename T1, typename T2 = T1, typename OutT = bool>
struct LessEqual {
  constexpr OutT operator()(const T1& a, const T2& b) const {
    return static_cast<OutT>(a <= b);
  }
};

// ---------------------------------------------------------------------------
// Operator adaptors: bind a constant into one side of a binary op, turning
// it into a unary op. These implement GBTL's BinaryOp_Bind1st/Bind2nd used
// by PageRank (Fig. 8) and PyGB's `UnaryOp("Times", damping_factor)`.
// ---------------------------------------------------------------------------

template <typename T, typename BinaryOpT>
class BinaryOpBind1st {
 public:
  constexpr BinaryOpBind1st(T bound, BinaryOpT op = BinaryOpT{})
      : bound_(bound), op_(op) {}
  constexpr auto operator()(const T& rhs) const { return op_(bound_, rhs); }
  constexpr T bound() const { return bound_; }

 private:
  T bound_;
  BinaryOpT op_;
};

template <typename T, typename BinaryOpT>
class BinaryOpBind2nd {
 public:
  constexpr BinaryOpBind2nd(T bound, BinaryOpT op = BinaryOpT{})
      : bound_(bound), op_(op) {}
  constexpr auto operator()(const T& lhs) const { return op_(lhs, bound_); }
  constexpr T bound() const { return bound_; }

 private:
  T bound_;
  BinaryOpT op_;
};

// ---------------------------------------------------------------------------
// Monoids: a commutative associative binary op plus its identity element.
// GEN_GBTL_MONOID mirrors GBTL's GEN_GRAPHBLAS_MONOID macro used from the
// JIT binding (Fig. 9, operation_binding.cpp).
// ---------------------------------------------------------------------------

#define GEN_GBTL_MONOID(M_NAME, M_BINARYOP, M_IDENTITY)                      \
  template <typename T>                                                      \
  struct M_NAME {                                                            \
    using ScalarType = T;                                                    \
    using BinaryOpType = M_BINARYOP<T>;                                      \
    static constexpr T identity() { return static_cast<T>(M_IDENTITY); }    \
    constexpr T operator()(const T& a, const T& b) const {                   \
      return M_BINARYOP<T>{}(a, b);                                          \
    }                                                                        \
  };

GEN_GBTL_MONOID(PlusMonoid, Plus, 0)
GEN_GBTL_MONOID(TimesMonoid, Times, 1)
GEN_GBTL_MONOID(LogicalOrMonoid, LogicalOr, false)
GEN_GBTL_MONOID(LogicalAndMonoid, LogicalAnd, true)
GEN_GBTL_MONOID(LogicalXorMonoid, LogicalXor, false)

/// MinMonoid / MaxMonoid need numeric-limits identities, so they are spelled
/// out rather than macro-generated.
template <typename T>
struct MinMonoid {
  using ScalarType = T;
  using BinaryOpType = Min<T>;
  static constexpr T identity() { return std::numeric_limits<T>::max(); }
  constexpr T operator()(const T& a, const T& b) const {
    return Min<T>{}(a, b);
  }
};

template <typename T>
struct MaxMonoid {
  using ScalarType = T;
  using BinaryOpType = Max<T>;
  static constexpr T identity() { return std::numeric_limits<T>::lowest(); }
  constexpr T operator()(const T& a, const T& b) const {
    return Max<T>{}(a, b);
  }
};

/// Concept matched by any monoid defined above (has identity() + call).
template <typename M>
concept MonoidType = requires(M m, typename M::ScalarType v) {
  requires std::is_convertible_v<decltype(M::identity()),
                                 typename M::ScalarType>;
  requires std::is_convertible_v<decltype(m(v, v)), typename M::ScalarType>;
};

// ---------------------------------------------------------------------------
// Semirings: <add monoid, multiply binary op>. The identity of ⊕ is the
// annihilator of ⊗ (C API requirement). GEN_GBTL_SEMIRING mirrors GBTL's
// GEN_GRAPHBLAS_SEMIRING used from the JIT binding.
// ---------------------------------------------------------------------------

#define GEN_GBTL_SEMIRING(SR_NAME, ADD_MONOID, MULT_BINARYOP)                \
  template <typename D1, typename D2 = D1, typename D3 = D1>                 \
  struct SR_NAME {                                                           \
    using ScalarType = D3;                                                   \
    using AddMonoidType = ADD_MONOID<D3>;                                    \
    using MultOpType = MULT_BINARYOP<D1, D2, D3>;                            \
    static constexpr D3 zero() { return ADD_MONOID<D3>::identity(); }        \
    constexpr D3 add(const D3& a, const D3& b) const {                       \
      return ADD_MONOID<D3>{}(a, b);                                         \
    }                                                                        \
    constexpr D3 mult(const D1& a, const D2& b) const {                      \
      return MULT_BINARYOP<D1, D2, D3>{}(a, b);                              \
    }                                                                        \
  };

GEN_GBTL_SEMIRING(ArithmeticSemiring, PlusMonoid, Times)
GEN_GBTL_SEMIRING(LogicalSemiring, LogicalOrMonoid, LogicalAnd)
GEN_GBTL_SEMIRING(MinPlusSemiring, MinMonoid, Plus)
GEN_GBTL_SEMIRING(MaxTimesSemiring, MaxMonoid, Times)
GEN_GBTL_SEMIRING(MinSelect1stSemiring, MinMonoid, First)
GEN_GBTL_SEMIRING(MinSelect2ndSemiring, MinMonoid, Second)
GEN_GBTL_SEMIRING(MaxSelect1stSemiring, MaxMonoid, First)
GEN_GBTL_SEMIRING(MaxSelect2ndSemiring, MaxMonoid, Second)
GEN_GBTL_SEMIRING(MinTimesSemiring, MinMonoid, Times)
GEN_GBTL_SEMIRING(MaxPlusSemiring, MaxMonoid, Plus)

/// Concept matched by any semiring defined above.
template <typename SR>
concept SemiringType = requires(SR sr, typename SR::ScalarType v) {
  requires std::is_convertible_v<decltype(SR::zero()),
                                 typename SR::ScalarType>;
  requires std::is_convertible_v<decltype(sr.add(v, v)),
                                 typename SR::ScalarType>;
};

}  // namespace gbtl
