// gbtl/detail/parallel.hpp — the optional multithreaded substrate backend.
//
// §IV of the paper notes that "it may be more suitable in some situations
// to use a multithreaded GBTL backend instead of multithreading in
// Python". This header provides that backend's entry point: a
// block-partitioned parallel_for over row ranges used by every row-wise
// kernel (mxm, mxv-pull, eWiseAdd/eWiseMult, apply, reduce). Work runs on
// the persistent worker pool in detail/pool.{hpp,cpp} — workers are
// started once, parked between operations, and each takes one contiguous
// block of rows — instead of spawning and joining fresh std::threads per
// call. The worker count comes from GBTL_NUM_THREADS
// (default 1 = fully sequential, no thread machinery touched);
// set_num_threads resizes the pool at run time.
//
// Kernels parallelize by writing disjoint row slots of a staging buffer;
// shared container state (nvals bookkeeping) is only touched in the
// sequential assembly pass, so no locks are needed, and results are
// bit-identical for every worker count.
//
// The dlopen constraint: JIT-generated modules compile this header with a
// bare `g++ -shared` that never links libpygb, so nothing here may assume
// the pool (or pygb::obs) objects are present. pool.hpp gates on
// GBTL_POOL_LINKED — in-repo targets call the pool directly; generated
// modules go through a host-injected function table and fall back to
// inline sequential loops when no table was injected.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>

#include "gbtl/detail/pool.hpp"
#include "gbtl/types.hpp"

// Per-worker observability spans. Gated on PYGB_OBS_HOOKS (defined for all
// in-repo targets) because JIT-generated modules compile this header
// without libpygb — the obs symbols would be unresolvable inside the
// dlopen'd module. Worker spans inside JIT kernels are therefore not
// traced; everything in-process is.
#if defined(PYGB_OBS_HOOKS)
#include "pygb/obs/obs.hpp"
#define GBTL_WORKER_SPAN(span_name, begin_row, end_row)                  \
  ::pygb::obs::Span gbtl_worker_span_(span_name);                        \
  if (gbtl_worker_span_.active()) {                                      \
    gbtl_worker_span_                                                    \
        .attr("begin", static_cast<std::uint64_t>(begin_row))            \
        .attr("end", static_cast<std::uint64_t>(end_row));               \
  }
#else
#define GBTL_WORKER_SPAN(span_name, begin_row, end_row)
#endif

namespace gbtl::detail {

/// Current worker-thread count (1 = sequential execution on the caller).
inline unsigned num_threads() { return pool_num_threads(); }

/// Override the worker count (values < 1 clamp to 1). Visible immediately:
/// the pool drains, joins its old complement, and restarts lazily at the
/// new size on the next parallel operation.
inline void set_num_threads(unsigned n) { pool_set_num_threads(n); }

/// Run f(begin, end) over a partition of [0, n) on the worker pool. With
/// one thread (or tiny n) the call runs inline on the caller, in chunks, so
/// f may be invoked several times over disjoint sub-ranges.
/// Exceptions thrown by workers are rethrown on the caller after the
/// operation drains. Nested calls run inline (no oversubscription).
/// Sequential-path chunk width: large enough that the per-chunk governor
/// checkpoint is noise, small enough that a deadline or cancel lands
/// promptly even when the whole range runs inline on the caller.
inline constexpr IndexType kSequentialCheckpointRows = 8192;

template <typename F>
void parallel_for_rows(IndexType n, F&& f) {
  if (n < 2 * kMinRowsPerThread || pool_num_threads() <= 1) {
    // Inline path. Kernels write disjoint per-row slots, so chunking here
    // changes no result — it only gives the governor the same checkpoint
    // cadence the pooled path gets at block boundaries.
    pool_checkpoint();
    if (n == 0) {
      f(IndexType{0}, IndexType{0});
      return;
    }
    for (IndexType begin = 0; begin < n;
         begin += kSequentialCheckpointRows) {
      const IndexType end = begin + kSequentialCheckpointRows < n
                                ? begin + kSequentialCheckpointRows
                                : n;
      if (begin != 0) pool_checkpoint();
      f(begin, end);
    }
    return;
  }
  using Fn = std::remove_reference_t<F>;
  pool_parallel_for(
      n,
      [](void* ctx, IndexType begin, IndexType end) {
        GBTL_WORKER_SPAN("parallel.worker", begin, end)
        (*static_cast<Fn*>(ctx))(begin, end);
      },
      const_cast<void*>(static_cast<const void*>(&f)));
}

}  // namespace gbtl::detail
