// gbtl/detail/pool_api.hpp — the host hooks a kernel needs at run time:
// the PoolApi function table handed to dlopen'd JIT modules, and the
// governor/observability entry points routed through it. Split out of
// pool.hpp so the operator cores (gbtl/core.hpp) and the light module
// header (pygb/jit/thin.hpp) reach them without <atomic> or <cstdlib>.
//
// In-repo targets (GBTL_POOL_LINKED) declare the entry points below and
// link detail/pool.cpp. A JIT module reads the table the loader injected
// through the pygb_module_set_pool export; until then every hook no-ops.
#pragma once

#include <cstdint>

#include "gbtl/index.hpp"

namespace gbtl {
struct DriverTable;  // gbtl/core.hpp
}  // namespace gbtl

namespace gbtl::detail {

/// Task callback: run rows [begin, end) of the submitted range. A single
/// parallel_for call may invoke it many times (once per chunk).
using PoolTaskFn = void (*)(void* ctx, IndexType begin, IndexType end);

/// C-layout function table handed to dlopen'd JIT modules so their kernels
/// dispatch onto the host's pool instead of looping sequentially. The ABI
/// version is checked by the module before accepting the table.
///
/// v2 adds the pygb::governor routing (docs/ROBUSTNESS.md): checkpoint()
/// and mem_reserve() may throw host exceptions; they unwind through the
/// module's frames safely because host and module share one g++ unwinder
/// (the same contract that already lets pool worker exceptions rethrow
/// across the boundary). A v1 module handed this table rejects it and
/// degrades to sequential, ungoverned execution — the cache schema bump
/// (pygb/jit/cache.hpp) retires those modules anyway.
///
/// v3 adds the observability routing (docs/OBSERVABILITY.md): fault_check()
/// lets generated kernels carry pygb::faultinj sites (the kernel_crash site
/// behind the crash-attribution test), and flight_note() lets them drop
/// events into the host's flight recorder. Both are noexcept and cheap;
/// without an injected pool they no-op, exactly like the governor hooks.
///
/// v4 adds per-request governor context routing (docs/SERVING.md): the
/// checkpoint/mem_reserve/mem_release entries above are now CONTEXT
/// SENSITIVE on the host side — they act on the calling thread's bound
/// pygb::governor::RequestContext (the pool re-binds the submitter's
/// context on every worker for a job's duration, so this is transparent to
/// kernels). request_current()/request_adopt() expose the binding itself
/// for module code that spawns its own threads and must carry the tenant
/// across. The table stays append-only: a v3 module handed this table
/// works unchanged (its governor calls route per-request automatically);
/// a v4 module handed a v3 table skips the new entries.
///
/// v5 adds the driver table (gbtl/core.hpp): the dtype-only halves of the
/// operator-carrying ops, instantiated once per dtype in libpygb. Thin
/// modules (pygb/jit/thin.hpp) compile only their operator cores and call
/// these drivers; host_pool_api() leaves the field null and the loader
/// hands modules a copy that carries it.
struct PoolApi {
  unsigned abi_version;
  void (*parallel_for)(IndexType n, PoolTaskFn fn, void* ctx);
  unsigned (*num_threads)();
  void (*set_num_threads)(unsigned n);
  // -- v2: governor routing --
  void (*checkpoint)();                       ///< cancellation/deadline point
  void (*mem_reserve)(std::uint64_t bytes);   ///< budget charge (may throw)
  void (*mem_release)(std::uint64_t bytes);   ///< return a charge (noexcept)
  // -- v3: observability routing --
  int (*fault_check)(const char* site);       ///< pygb::faultinj action code
  void (*flight_note)(const char* what, std::uint64_t v0,
                      std::uint64_t v1);      ///< flight-recorder event
  // -- v4: per-request governor context routing --
  void* (*request_current)();        ///< opaque RequestContext* of caller
  void (*request_adopt)(void* ctx);  ///< bind ctx (nullptr = default) here
  // -- v5: dtype-only op drivers --
  const DriverTable* drivers;
};

inline constexpr unsigned kPoolAbiVersion = 5;

/// The injection export generated modules carry (see pygb/jit/thin.hpp);
/// pygb::jit::load_kernel dlsym's this name after every successful dlopen.
inline constexpr const char* kPoolInjectSymbol = "pygb_module_set_pool";

#if defined(GBTL_POOL_LINKED)

/// The function table injected into JIT modules (stable for the process
/// lifetime). Its `drivers` field is null; see PoolApi v5.
const PoolApi* host_pool_api();

/// Governor routing (pygb::governor; docs/ROBUSTNESS.md). Kernels and
/// algorithms call these instead of including governor.hpp directly so the
/// SAME header line compiles in JIT modules, where the calls route through
/// the injected PoolApi (and no-op if the host never injected it).
void pool_checkpoint();
void pool_mem_reserve(std::uint64_t bytes);
void pool_mem_release(std::uint64_t bytes) noexcept;

/// Observability routing (pygb::faultinj / pygb::flightrec). Same
/// same-header-both-builds contract as the governor hooks above.
int pool_fault_check(const char* site) noexcept;
void pool_flight_note(const char* what, std::uint64_t v0,
                      std::uint64_t v1) noexcept;

#else  // !GBTL_POOL_LINKED — a JIT module compiled without libpygb.

/// The host-injected pool table (null until pygb_module_set_pool runs).
/// Read and written with acquire/release builtins rather than std::atomic
/// so this header stays light.
inline const PoolApi*& pool_api_slot() noexcept {
  static const PoolApi* api = nullptr;
  return api;
}

inline const PoolApi* injected_pool_api() noexcept {
  return __atomic_load_n(&pool_api_slot(), __ATOMIC_ACQUIRE);
}

/// Accept the host's table. The table is append-only, so any version at
/// least as new as the one this module was compiled against is safe.
inline void accept_pool_api(const PoolApi* api) noexcept {
  if (api != nullptr && api->abi_version >= kPoolAbiVersion) {
    __atomic_store_n(&pool_api_slot(), api, __ATOMIC_RELEASE);
  }
}

// Governor routing through the injected table. Without an injected pool
// the module runs ungoverned (same degrade philosophy as the sequential
// loop in pool.hpp): uncancellable, unbudgeted, but correct.
inline void pool_checkpoint() {
  if (const PoolApi* api = injected_pool_api()) api->checkpoint();
}

inline void pool_mem_reserve(std::uint64_t bytes) {
  if (const PoolApi* api = injected_pool_api()) api->mem_reserve(bytes);
}

inline void pool_mem_release(std::uint64_t bytes) noexcept {
  if (const PoolApi* api = injected_pool_api()) api->mem_release(bytes);
}

inline int pool_fault_check(const char* site) noexcept {
  if (const PoolApi* api = injected_pool_api()) return api->fault_check(site);
  return 0;
}

inline void pool_flight_note(const char* what, std::uint64_t v0,
                             std::uint64_t v1) noexcept {
  if (const PoolApi* api = injected_pool_api()) {
    api->flight_note(what, v0, v1);
  }
}

#endif  // GBTL_POOL_LINKED

/// RAII budget charge for kernel staging buffers, built on the routed
/// entry points above so it works identically in-repo and inside JIT
/// modules. charge() raises pygb::governor::ResourceExhausted BEFORE the
/// caller allocates; the destructor returns whatever was granted.
class ScopedMemCharge {
 public:
  ScopedMemCharge() = default;
  explicit ScopedMemCharge(std::uint64_t bytes) { charge(bytes); }
  ScopedMemCharge(const ScopedMemCharge&) = delete;
  ScopedMemCharge& operator=(const ScopedMemCharge&) = delete;
  ScopedMemCharge(ScopedMemCharge&& other) noexcept : bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  ~ScopedMemCharge() { release(); }

  void charge(std::uint64_t bytes) {
    pool_mem_reserve(bytes);
    bytes_ += bytes;
  }
  void release() noexcept {
    if (bytes_ != 0) {
      pool_mem_release(bytes_);
      bytes_ = 0;
    }
  }

 private:
  std::uint64_t bytes_ = 0;
};

}  // namespace gbtl::detail
