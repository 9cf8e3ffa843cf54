// gbtl/detail/pool.hpp — the persistent worker pool behind the
// multithreaded substrate backend.
//
// The pool replaces the spawn/join-per-call threading of the original
// parallel_for_rows: GBTL_NUM_THREADS - 1 workers are started lazily on
// the first parallel operation, parked on a condition variable between
// operations, and reused for every subsequent parallel_for_rows. Each
// participant runs one contiguous block of rows.
//
// Results never depend on the worker count: kernels write
// disjoint per-row (or per-tile) staging slots and all combining happens
// in a deterministic sequential tail on the caller.
//
// Two builds see this header (the dlopen constraint documented in
// parallel.hpp):
//
//   * in-repo targets (GBTL_POOL_LINKED defined) link detail/pool.cpp and
//     call the pool_* entry points below directly;
//   * JIT-generated modules are compiled with a bare `g++ -shared` that
//     never links libpygb. They receive the host's pool through a function
//     table (PoolApi) injected right after dlopen via the
//     pygb_module_set_pool export (defined in pygb/jit/thin.hpp); until —
//     or unless — that injection happens, they degrade to inline
//     sequential loops.
#pragma once

#include <cstdint>

#include "gbtl/detail/pool_api.hpp"
#include "gbtl/types.hpp"

namespace gbtl::detail {

/// Below this many rows per worker the dispatch cost dwarfs any win; the
/// pool clamps its participant count so every block is at least this tall,
/// and parallel_for_rows runs ranges shorter than twice this inline.
inline constexpr IndexType kMinRowsPerThread = 64;

#if defined(GBTL_POOL_LINKED)

// Implemented in detail/pool.cpp (linked into every in-repo target through
// the gbtl interface library).

/// Current worker count (1 = fully sequential, no thread machinery).
/// Initialized from GBTL_NUM_THREADS on first use.
unsigned pool_num_threads();

/// Resize the pool (values < 1 clamp to 1). Takes effect immediately:
/// running workers are drained and joined; the new complement is started
/// lazily on the next parallel operation.
void pool_set_num_threads(unsigned n);

/// Run fn(ctx, begin, end) over a partition of [0, n) on the pool.
/// Worker exceptions are captured and the first one is rethrown on the
/// caller after the operation completes. Nested calls (from inside a pool
/// task) and calls while another host thread owns the pool run inline.
void pool_parallel_for(IndexType n, PoolTaskFn fn, void* ctx);

/// Per-request context routing (PoolApi v4): the calling thread's bound
/// pygb::governor::RequestContext as an opaque pointer, and a way to adopt
/// one on a thread the pool does not manage. In-repo code should prefer
/// pygb::governor::{bound_context, ThreadBind} directly; these exist so
/// the SAME call compiles inside JIT modules.
void* pool_request_current() noexcept;
void pool_request_adopt(void* ctx) noexcept;

/// mxv direction-optimization decision counters (gbtl/ops/mxv.hpp). Kept
/// here because flight notes from BOTH in-repo kernels and dlopen'd
/// modules funnel through this layer; pygb::obs mirrors them into its
/// counter table for `--stats`.
std::uint64_t mxv_push_decisions() noexcept;
std::uint64_t mxv_pull_decisions() noexcept;
void reset_mxv_decisions() noexcept;

#else  // !GBTL_POOL_LINKED — a JIT module compiled without libpygb.

// Without an injected pool (a stale cached module or a standalone compile
// of generated source), pool_parallel_for runs inline: one thread.
inline unsigned pool_num_threads() {
  if (const PoolApi* api = injected_pool_api()) {
    return api->num_threads();
  }
  return 1;
}

inline void pool_set_num_threads(unsigned n) {
  if (const PoolApi* api = injected_pool_api()) {
    api->set_num_threads(n);
  }
}

inline void pool_parallel_for(IndexType n, PoolTaskFn fn, void* ctx) {
  if (const PoolApi* api = injected_pool_api()) {
    api->parallel_for(n, fn, ctx);
    return;
  }
  fn(ctx, IndexType{0}, n);  // no pool injected: inline sequential loop
}

// Per-request context routing: lets module code that spawns its own
// threads carry the tenant binding across.
inline void* pool_request_current() noexcept {
  if (const PoolApi* api = injected_pool_api()) return api->request_current();
  return nullptr;
}

inline void pool_request_adopt(void* ctx) noexcept {
  if (const PoolApi* api = injected_pool_api()) api->request_adopt(ctx);
}

#endif  // GBTL_POOL_LINKED

}  // namespace gbtl::detail
