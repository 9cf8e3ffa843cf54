// gbtl/detail/backend.hpp — the kernel-backend axis (docs/BACKENDS.md).
//
// A "backend" selects which implementation strategy the substrate kernels
// use for the SAME mathematical operation: `scalar` is the seed's plain
// row loops; `simd` adds AVX2-width inner loops, direction-optimized mxv
// (push vs pull chosen from input-vector density), L2-tiled SpGEMM, and
// masked push-down. Results are BIT-IDENTICAL across backends by
// construction — every ⊕-fold keeps the scalar backend's operand order —
// so a backend is a pure performance choice, never a semantics choice.
//
// Like the worker pool, this header is compiled both into the repo
// (GBTL_POOL_LINKED) and into dlopen'd JIT modules:
//
//   * in-process, the default backend comes from PYGB_BACKEND (read once)
//     and can be overridden programmatically (set_default_backend) or per
//     op via a pygb::BackendHint context entry; eval.cpp resolves the
//     request's backend and installs a BackendScope around the kernel.
//   * a JIT module never reads the environment: its dispatch key carries
//     the backend (`|be=simd`), and codegen bakes an explicit BackendScope
//     into the generated kernel body, so a cached module always runs the
//     backend it was keyed under, whatever the host environment says now.
//
// Kernels must read the active backend ONCE at entry on the calling
// thread (into a const local captured by any parallel lambdas): worker
// threads executing a module's loops would otherwise consult the module's
// own thread-local slot, which nothing ever set.
//
// A future GPU backend slots in here: add an enumerator, teach
// backend_name and PYGB_BACKEND's row in pygb/config.hpp the token, and
// give the kernels a branch — the dispatch key, registry, and codegen
// plumbing are backend-agnostic.
#pragma once

namespace gbtl::detail {

enum class Backend : unsigned char { kScalar = 0, kSimd = 1 };

inline const char* backend_name(Backend b) noexcept {
  return b == Backend::kSimd ? "simd" : "scalar";
}

#if defined(GBTL_POOL_LINKED)
/// PYGB_BACKEND (detail/pool.cpp; a malformed value aborts).
Backend env_backend() noexcept;
#endif

namespace backend_impl {

/// Process-wide default. In-process builds seed it from PYGB_BACKEND once;
/// module builds never touch the environment (the baked BackendScope is
/// authoritative there). Plain (non-atomic) on purpose: it is written by
/// tests/benches between operations, never concurrently with kernels.
inline Backend& default_slot() noexcept {
  static Backend def =
#if defined(GBTL_POOL_LINKED)
      env_backend();
#else
      Backend::kScalar;
#endif
  return def;
}

struct TlsState {
  Backend backend = Backend::kScalar;
  bool overridden = false;
};

inline TlsState& tls() noexcept {
  thread_local TlsState state;
  return state;
}

}  // namespace backend_impl

inline Backend default_backend() noexcept {
  return backend_impl::default_slot();
}

/// Programmatic override of the PYGB_BACKEND default (tests, benches,
/// long-lived embedders). Affects subsequent operations on every thread
/// that has no BackendScope installed.
inline void set_default_backend(Backend b) noexcept {
  backend_impl::default_slot() = b;
}

/// The backend kernels on THIS thread should use right now: the innermost
/// BackendScope, or the process default.
inline Backend active_backend() noexcept {
  const auto& state = backend_impl::tls();
  return state.overridden ? state.backend : default_backend();
}

inline bool simd_enabled() noexcept {
  return active_backend() == Backend::kSimd;
}

/// RAII thread-local backend override. Installed by eval.cpp's dispatch
/// around every kernel invocation (in-process) and baked into generated
/// module bodies by codegen (JIT).
class BackendScope {
 public:
  explicit BackendScope(Backend b) noexcept : saved_(backend_impl::tls()) {
    backend_impl::tls() = {b, true};
  }
  ~BackendScope() { backend_impl::tls() = saved_; }
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  backend_impl::TlsState saved_;
};

/// AVX2 availability, probed once. The simd backend stays fully functional
/// without it — the intrinsic paths fall back to the identical-order
/// scalar loops — so algorithmic choices (push/pull, tiling, mask
/// push-down) are exercised on every machine.
inline bool cpu_has_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

}  // namespace gbtl::detail
