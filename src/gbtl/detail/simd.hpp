// gbtl/detail/simd.hpp — AVX2-width inner loops for the dense elementwise
// hot paths of the `simd` backend (docs/BACKENDS.md).
//
// Scope is deliberately narrow: only per-element-INDEPENDENT work is
// vectorized (eWise add/mult over fully dense vectors, apply with a plain
// or bound arithmetic op). Lane-parallel ⊕-reductions are excluded on
// purpose — reassociating a float fold would break the bit-identity
// guarantee the differential and property suites pin down. Min/Max are
// also excluded: `vminpd`/`vmaxpd` resolve ties (and ±0.0) toward the
// second operand while std::min/max keep the first, which is visible at
// the bit level.
//
// Every vectorized op here is bit-exact per lane (IEEE +, -, *, / and
// sign-flip are deterministic elementwise), so scalar and simd backends
// produce identical bytes.
//
// The AVX2 bodies are concrete functions carrying
// __attribute__((target("avx2"))) — no global -mavx2 flag, so this header
// stays safe to compile into JIT modules with the stock g++ invocation —
// and every caller falls back to its own scalar loop when cpu_has_avx2()
// is false (or on non-x86).
#pragma once

#include <cstddef>
#include <type_traits>

#include "gbtl/detail/backend.hpp"
#include "gbtl/detail/simd_kinds.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define GBTL_SIMD_X86 1
#endif

namespace gbtl::detail {

// --- AVX2 bodies ------------------------------------------------------------

#if defined(GBTL_SIMD_X86)

__attribute__((target("avx2"))) inline void avx2_bin_f64(
    VecBin kind, const double* a, const double* b, double* out,
    std::size_t n) {
  std::size_t i = 0;
  switch (kind) {
    case VecBin::kAdd:
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(a + i),
                                                _mm256_loadu_pd(b + i)));
      }
      for (; i < n; ++i) out[i] = a[i] + b[i];
      break;
    case VecBin::kSub:
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                                _mm256_loadu_pd(b + i)));
      }
      for (; i < n; ++i) out[i] = a[i] - b[i];
      break;
    case VecBin::kMul:
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                                _mm256_loadu_pd(b + i)));
      }
      for (; i < n; ++i) out[i] = a[i] * b[i];
      break;
    case VecBin::kDiv:
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_div_pd(_mm256_loadu_pd(a + i),
                                                _mm256_loadu_pd(b + i)));
      }
      for (; i < n; ++i) out[i] = a[i] / b[i];
      break;
    case VecBin::kNone:
      break;
  }
}

__attribute__((target("avx2"))) inline void avx2_bin_f32(
    VecBin kind, const float* a, const float* b, float* out, std::size_t n) {
  std::size_t i = 0;
  switch (kind) {
    case VecBin::kAdd:
      for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                                _mm256_loadu_ps(b + i)));
      }
      for (; i < n; ++i) out[i] = a[i] + b[i];
      break;
    case VecBin::kSub:
      for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                                _mm256_loadu_ps(b + i)));
      }
      for (; i < n; ++i) out[i] = a[i] - b[i];
      break;
    case VecBin::kMul:
      for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                                _mm256_loadu_ps(b + i)));
      }
      for (; i < n; ++i) out[i] = a[i] * b[i];
      break;
    case VecBin::kDiv:
      for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(out + i, _mm256_div_ps(_mm256_loadu_ps(a + i),
                                                _mm256_loadu_ps(b + i)));
      }
      for (; i < n; ++i) out[i] = a[i] / b[i];
      break;
    case VecBin::kNone:
      break;
  }
}

__attribute__((target("avx2"))) inline void avx2_un_f64(
    VecUn kind, const double* a, double s, double* out, std::size_t n) {
  std::size_t i = 0;
  const __m256d vs = _mm256_set1_pd(s);
  const __m256d sign = _mm256_set1_pd(-0.0);
  switch (kind) {
    case VecUn::kCopy:
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_loadu_pd(a + i));
      }
      for (; i < n; ++i) out[i] = a[i];
      break;
    case VecUn::kNeg:
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(out + i,
                         _mm256_xor_pd(_mm256_loadu_pd(a + i), sign));
      }
      for (; i < n; ++i) out[i] = -a[i];
      break;
    case VecUn::kAddS:
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(a + i), vs));
      }
      for (; i < n; ++i) out[i] = a[i] + s;
      break;
    case VecUn::kSubS:
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_loadu_pd(a + i), vs));
      }
      for (; i < n; ++i) out[i] = a[i] - s;
      break;
    case VecUn::kRsubS:
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_sub_pd(vs, _mm256_loadu_pd(a + i)));
      }
      for (; i < n; ++i) out[i] = s - a[i];
      break;
    case VecUn::kMulS:
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), vs));
      }
      for (; i < n; ++i) out[i] = a[i] * s;
      break;
    case VecUn::kDivS:
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_div_pd(_mm256_loadu_pd(a + i), vs));
      }
      for (; i < n; ++i) out[i] = a[i] / s;
      break;
    case VecUn::kRdivS:
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_div_pd(vs, _mm256_loadu_pd(a + i)));
      }
      for (; i < n; ++i) out[i] = s / a[i];
      break;
    case VecUn::kNone:
      break;
  }
}

__attribute__((target("avx2"))) inline void avx2_un_f32(
    VecUn kind, const float* a, float s, float* out, std::size_t n) {
  std::size_t i = 0;
  const __m256 vs = _mm256_set1_ps(s);
  const __m256 sign = _mm256_set1_ps(-0.0f);
  switch (kind) {
    case VecUn::kCopy:
      for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(out + i, _mm256_loadu_ps(a + i));
      }
      for (; i < n; ++i) out[i] = a[i];
      break;
    case VecUn::kNeg:
      for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(out + i,
                         _mm256_xor_ps(_mm256_loadu_ps(a + i), sign));
      }
      for (; i < n; ++i) out[i] = -a[i];
      break;
    case VecUn::kAddS:
      for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), vs));
      }
      for (; i < n; ++i) out[i] = a[i] + s;
      break;
    case VecUn::kSubS:
      for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), vs));
      }
      for (; i < n; ++i) out[i] = a[i] - s;
      break;
    case VecUn::kRsubS:
      for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(out + i, _mm256_sub_ps(vs, _mm256_loadu_ps(a + i)));
      }
      for (; i < n; ++i) out[i] = s - a[i];
      break;
    case VecUn::kMulS:
      for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
      }
      for (; i < n; ++i) out[i] = a[i] * s;
      break;
    case VecUn::kDivS:
      for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(out + i, _mm256_div_ps(_mm256_loadu_ps(a + i), vs));
      }
      for (; i < n; ++i) out[i] = a[i] / s;
      break;
    case VecUn::kRdivS:
      for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(out + i, _mm256_div_ps(vs, _mm256_loadu_ps(a + i)));
      }
      for (; i < n; ++i) out[i] = s / a[i];
      break;
    case VecUn::kNone:
      break;
  }
}

#endif  // GBTL_SIMD_X86

// --- typed entry points -----------------------------------------------------

/// out[i] = a[i] <kind> b[i] for i < n via AVX2 (float/double). Returns
/// false when the CPU lacks AVX2 or `kind` is kNone — the caller runs its
/// (bit-identical) scalar loop. The operator cores (gbtl/core.hpp) name
/// the kind with VecBinOf; the drivers run the loop.
template <typename T>
inline bool vec_binary_dense(VecBin kind, const T* a, const T* b, T* out,
                             std::size_t n) {
#if defined(GBTL_SIMD_X86)
  if constexpr (vec_dtype_v<T>) {
    if (kind == VecBin::kNone || !cpu_has_avx2()) return false;
    if constexpr (std::is_same_v<T, double>) {
      avx2_bin_f64(kind, a, b, out, n);
    } else {
      avx2_bin_f32(kind, a, b, out, n);
    }
    return true;
  }
#endif
  (void)kind;
  (void)a;
  (void)b;
  (void)out;
  (void)n;
  return false;
}

/// out[i] = f(a[i]) for i < n via AVX2, where `kind` and the bound scalar
/// `s` come from VecUnOf. Returns false otherwise.
template <typename T>
inline bool vec_unary_dense(VecUn kind, T s, const T* a, T* out,
                            std::size_t n) {
#if defined(GBTL_SIMD_X86)
  if constexpr (vec_dtype_v<T>) {
    if (kind == VecUn::kNone || !cpu_has_avx2()) return false;
    if constexpr (std::is_same_v<T, double>) {
      avx2_un_f64(kind, a, s, out, n);
    } else {
      avx2_un_f32(kind, a, s, out, n);
    }
    return true;
  }
#endif
  (void)kind;
  (void)s;
  (void)a;
  (void)out;
  (void)n;
  return false;
}

}  // namespace gbtl::detail
