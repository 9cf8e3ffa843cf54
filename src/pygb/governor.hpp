// pygb/governor.hpp — per-operation resource governance and cooperative
// cancellation for the execution path (docs/ROBUSTNESS.md).
//
// PR 4 bounded JIT *compilation*; the governor bounds *execution*. Three
// services, all off by default and costing a TLS read plus two relaxed
// atomic loads per checkpoint when disarmed (the same bargain as pygb::obs
// and pygb::faultinj):
//
//   * Memory budgets — PYGB_MEM_LIMIT_BYTES (or set_mem_limit_bytes /
//     `pygb_cli --mem-limit`). Kernels charge their dominant allocations
//     (staging row tables, SpA accumulators, interpreter staging copies,
//     IO ingest buffers) through mem_reserve() BEFORE allocating; a charge
//     that would cross the limit raises ResourceExhausted instead of
//     letting the process die on bad_alloc / the OOM killer.
//   * Deadlines — PYGB_OP_TIMEOUT_MS (or set_op_timeout_ms /
//     `--op-timeout`). An OpScope opened at kernel dispatch arms an
//     absolute steady-clock deadline; checkpoints sprinkled through the
//     execution path (pool chunk boundaries, kernel row loops, algorithm
//     iteration boundaries) raise DeadlineExceeded once it passes.
//   * Cancellation — cancel() marks the in-flight operation (or, when
//     idle, the next one) for abort at its next checkpoint, raising
//     Cancelled. Exactly one operation consumes each cancel request.
//
// Strong guarantee: checkpoints and charges live ONLY in compute phases —
// never in the sequential write/commit phase that publishes results — so
// an aborted operation leaves its output containers untouched.
//
// PER-REQUEST CONTEXTS (PR 9, the pygb_serve spine): every slot above
// lives in a RequestContext. The process has one built-in DEFAULT context
// — all the historical free functions operate on it, so a single-tenant
// process behaves exactly as before — and a serving path may stack-allocate
// one context per request, bind it to the executing thread with ThreadBind,
// and get an isolated budget/deadline/cancel scope: one tenant's OOM or
// disconnect cannot abort another tenant's op. The binding is thread-local
// and travels with work: the gbtl pool captures the submitter's binding at
// parallel_for and installs it on every worker for the job's duration
// (PoolApi v4), so checkpoints and charges inside JIT modules route to the
// right tenant with no kernel-ABI change. A bound thread answers ONLY to
// its own context (isolation); an unbound thread answers to the default
// context (legacy semantics). Memory is charged twice on bound threads —
// against the request's budget AND the default context's process-wide
// gauge — so PYGB_MEM_LIMIT_BYTES still caps the whole process and the
// admission-control high-water mark reads one number.
//
// This is a LEAF module (depends only on pygb::faultinj): the gbtl worker
// pool and the io readers link it without pulling in libpygb. JIT modules
// reach it through the PoolApi function table (gbtl/detail/pool.hpp).
//
// Error taxonomy (unified with PR 4's transient/permanent classification):
// ResourceExhausted and DeadlineExceeded are TRANSIENT — the environment
// (budget, machine load) rejected this run; the same request can succeed
// later with a bigger budget or a quieter machine. Cancelled is PERMANENT
// for the request — a caller explicitly asked for this work to stop.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

#include "pygb/faultinj.hpp"

namespace pygb::governor {

/// Base of the governor taxonomy. `transient()` mirrors the PR 4
/// classification: true = environmental, a retry may succeed (breaker
/// semantics would count, not condemn); false = deterministic for this
/// request.
class GovernorError : public std::runtime_error {
 public:
  GovernorError(const std::string& msg, bool transient)
      : std::runtime_error(msg), transient_(transient) {}
  bool transient() const noexcept { return transient_; }

 private:
  bool transient_;
};

/// A memory charge would cross PYGB_MEM_LIMIT_BYTES (or the bound
/// request's budget). Raised BEFORE the allocation; transient (a bigger
/// budget admits the same request).
class ResourceExhausted : public GovernorError {
 public:
  explicit ResourceExhausted(const std::string& msg)
      : GovernorError(msg, /*transient=*/true) {}
};

/// The operation outlived PYGB_OP_TIMEOUT_MS (or the bound request's
/// deadline). Transient (machine load).
class DeadlineExceeded : public GovernorError {
 public:
  explicit DeadlineExceeded(const std::string& msg)
      : GovernorError(msg, /*transient=*/true) {}
};

/// The operation was cancelled via cancel(). Permanent for this request.
class Cancelled : public GovernorError {
 public:
  explicit Cancelled(const std::string& msg)
      : GovernorError(msg, /*transient=*/false) {}
};

/// Monotonic/gauge view of the governor, mirrored into pygb::obs counters
/// (ops_cancelled, ops_deadline_exceeded, mem_budget_rejections,
/// mem_peak_bytes) when libpygb is linked. Event counters aggregate over
/// every context; the memory gauge/peak are the DEFAULT context's (i.e.
/// process-wide — request charges land there too).
struct Stats {
  std::uint64_t ops_cancelled = 0;
  std::uint64_t ops_deadline_exceeded = 0;
  std::uint64_t mem_budget_rejections = 0;
  std::uint64_t mem_peak_bytes = 0;     ///< high-water mark of charges
  std::uint64_t mem_current_bytes = 0;  ///< live charges (gauge)
  std::uint64_t checkpoints = 0;        ///< slow-path checkpoint visits
};

namespace detail {

enum ArmBit : std::uint32_t {
  kDeadlineArmed = 1u << 0,
  kCancelArmed = 1u << 1,
};

/// Slow path for the context the calling thread answers to: fault-injection
/// site, cancel check, deadline check. Throws Cancelled / DeadlineExceeded
/// / ResourceExhausted.
void checkpoint_slow();

}  // namespace detail

// -- per-request contexts ---------------------------------------------------

/// One tenant's governance scope: its own budget, deadline, cancel flag,
/// op bookkeeping, and memory gauge. A context serves ONE request (or, for
/// the built-in default instance, the whole process); it is not reusable
/// state — allocate a fresh one per request and keep it alive until every
/// thread bound to it has unbound (ThreadBind is strictly scoped, and the
/// pool unbinds workers before parallel_for returns, so stack lifetime
/// works).
///
/// Thread-safety: every member is individually atomic; configuration is
/// normally written before the context is bound, but cancel() and
/// set_request_deadline_ms() are safe from any thread at any time — that
/// is how a server's connection monitor kills a request mid-flight.
class RequestContext {
 public:
  RequestContext() = default;
  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  // -- configuration (usually set before binding) --
  void set_mem_limit_bytes(std::uint64_t bytes) noexcept {
    mem_limit_.store(bytes, std::memory_order_relaxed);
  }
  std::uint64_t mem_limit_bytes() const noexcept {
    return mem_limit_.load(std::memory_order_relaxed);
  }
  /// Per-operation timeout within this context; 0 falls back to the
  /// default context's timeout (so PYGB_OP_TIMEOUT_MS is a server-wide
  /// default a request can tighten but not escape... it CAN widen it: a
  /// nonzero per-request value wins outright, trusted callers only).
  void set_op_timeout_ms(std::uint64_t ms) noexcept {
    timeout_ms_.store(ms, std::memory_order_relaxed);
  }
  std::uint64_t op_timeout_ms() const noexcept {
    return timeout_ms_.load(std::memory_order_relaxed);
  }

  /// Arm a whole-request wall-clock cap, `ms` from now. Every op inside
  /// the request shares it (each OpScope arms min(op deadline, request
  /// deadline)), and checkpoints between ops honor it too. 0 disarms.
  void set_request_deadline_ms(std::uint64_t ms) noexcept;

  /// Milliseconds left on the armed whole-request deadline: 0 when none is
  /// armed, else at least 1 (an expired-but-armed deadline reports 1, so
  /// callers bounding slow work — the JIT clamps compile timeouts to this —
  /// can distinguish "unbounded" from "no budget left").
  std::uint64_t request_deadline_remaining_ms() const noexcept;

  /// Sticky cancellation of this context: every subsequent checkpoint on a
  /// bound thread throws Cancelled until the context dies. This is the
  /// client-disconnect path — unlike the default context's one-shot
  /// cancel(), it is NOT consumed by one op; a cancelled request must not
  /// run its next op either.
  void cancel() noexcept;
  bool cancel_requested() const noexcept {
    return sticky_cancel_.load(std::memory_order_relaxed) ||
           oneshot_cancel_.load(std::memory_order_relaxed);
  }

  /// Human label for error messages and spans ("req-42"). Set before
  /// binding; bounded copy, truncated silently.
  void set_label(const char* label) noexcept;

  // -- memory gauge --
  std::uint64_t mem_current_bytes() const noexcept {
    return mem_used_.load(std::memory_order_relaxed);
  }
  std::uint64_t mem_peak_bytes() const noexcept {
    return mem_peak_.load(std::memory_order_relaxed);
  }

  /// Charge `bytes` against THIS context's budget (throws
  /// ResourceExhausted without retaining the charge) — prefer the free
  /// mem_reserve(), which also maintains the process-wide gauge.
  void charge(std::uint64_t bytes);
  void uncharge(std::uint64_t bytes) noexcept;

  /// Nonzero while a deadline or cancel can fire here. Checkpoint fast
  /// path; relaxed.
  std::uint32_t armed_relaxed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

 private:
  friend void detail::checkpoint_slow();
  friend class OpScope;
  friend std::string current_op();
  friend void current_op_unsafe(char*, std::size_t) noexcept;
  friend void cancel() noexcept;
  friend bool cancel_requested() noexcept;
  friend void reset_stats() noexcept;

  std::string op_label() const;
  std::uint64_t op_elapsed_ms() const noexcept;

  // Configuration.
  std::atomic<std::uint64_t> mem_limit_{0};   // 0 = unlimited
  std::atomic<std::uint64_t> timeout_ms_{0};  // 0 = inherit default ctx
  std::atomic<std::uint64_t> request_deadline_ns_{0};  // absolute; 0 = none
  std::atomic<bool> oneshot_cancel_{false};  // legacy cancel() semantics
  std::atomic<bool> sticky_cancel_{false};   // RequestContext::cancel()
  std::atomic<bool> sticky_counted_{false};  // stats once per request

  // Memory gauge (always on; peak is meaningful without a limit).
  std::atomic<std::uint64_t> mem_used_{0};
  std::atomic<std::uint64_t> mem_peak_{0};

  // Per-operation state, owned by this context's outermost OpScope.
  std::atomic<std::uint32_t> armed_{0};
  std::atomic<int> depth_{0};
  std::atomic<std::uint64_t> deadline_ns_{0};  // absolute steady-clock; 0=off
  std::atomic<std::uint64_t> op_start_ns_{0};
  // First-abort latch: with 4 pool workers all tripping the same deadline,
  // only the winner counts the event (one op, one increment); the rest
  // still throw so the whole operation unwinds fast.
  std::atomic<bool> op_aborted_{false};

  // Cold: labels for error messages. Fixed buffers under a mutex so the
  // checkpoint slow path never allocates while reading them.
  mutable std::mutex name_mu_;
  char op_name_[128] = {0};
  char label_[64] = {0};
};

namespace detail {
/// The context unbound threads answer to; all the free functions below
/// operate on it. Exposed as an object (not an accessor) so the inline
/// checkpoint() fast path can read its armed word directly.
extern RequestContext g_default_ctx;
/// The calling thread's bound context; nullptr = default. Managed by
/// ThreadBind (and the pool's raw adopt for module-spawned threads).
/// constinit: other translation units then access it directly instead of
/// through a TLS wrapper. The wrapper's UBSan null check on the variable's
/// address read stale flags once the linker relaxed the TLS access into an
/// `lea` in executables, and reported a store to a null pointer.
extern constinit thread_local RequestContext* t_bound;
}  // namespace detail

/// The process-wide context behind the legacy free-function API.
inline RequestContext& default_context() noexcept {
  return detail::g_default_ctx;
}

/// The calling thread's bound context, or nullptr when unbound. The pool
/// captures this at parallel_for submission and re-binds it on workers.
inline RequestContext* bound_context() noexcept { return detail::t_bound; }

/// The context the calling thread answers to (bound or default).
inline RequestContext& current_context() noexcept {
  RequestContext* b = detail::t_bound;
  return b != nullptr ? *b : detail::g_default_ctx;
}

/// Scoped thread binding: checkpoints, OpScopes, and memory charges on
/// this thread route to `ctx` until destruction (nullptr re-binds the
/// default context). Restores the previous binding, so nesting works.
class ThreadBind {
 public:
  explicit ThreadBind(RequestContext* ctx) noexcept : prev_(detail::t_bound) {
    detail::t_bound = ctx;
  }
  ~ThreadBind() { detail::t_bound = prev_; }
  ThreadBind(const ThreadBind&) = delete;
  ThreadBind& operator=(const ThreadBind&) = delete;

 private:
  RequestContext* prev_;
};

// -- configuration (default context) ----------------------------------------

/// 0 = unlimited. Applies to the sum of live mem_reserve() charges.
void set_mem_limit_bytes(std::uint64_t bytes) noexcept;
std::uint64_t mem_limit_bytes() noexcept;

/// 0 = no deadline. Armed per-operation at OpScope entry.
void set_op_timeout_ms(std::uint64_t ms) noexcept;
std::uint64_t op_timeout_ms() noexcept;

/// Request cancellation of the default context's in-flight operation (or,
/// when idle, the next one). Exactly one operation consumes the request.
/// Does NOT touch bound request contexts — use RequestContext::cancel()
/// to kill a specific tenant.
void cancel() noexcept;
bool cancel_requested() noexcept;

/// Read PYGB_MEM_LIMIT_BYTES / PYGB_OP_TIMEOUT_MS. Runs once automatically
/// at static-init time (same pattern as pygb::faultinj).
void init_from_env();

// -- memory budget ----------------------------------------------------------

/// Charge `bytes` against the budget: the bound context's (if any), then
/// the default context's process-wide gauge. Throws ResourceExhausted (and
/// does NOT retain any part of the charge) if either limit would be
/// crossed. Tracking is always on, so mem_peak_bytes is meaningful even
/// without a limit.
void mem_reserve(std::uint64_t bytes);

/// Return a previous charge (to both gauges, mirroring mem_reserve).
/// Clamped at zero: a release that was never matched by a successful
/// reserve (possible around PoolApi injection races in JIT modules) must
/// not wrap the gauge.
void mem_release(std::uint64_t bytes) noexcept;

/// RAII charge for host-side code (the gbtl headers use the PoolApi-routed
/// gbtl::detail::ScopedMemCharge instead so JIT modules resolve it too).
class MemCharge {
 public:
  MemCharge() = default;
  explicit MemCharge(std::uint64_t bytes) { add(bytes); }
  MemCharge(const MemCharge&) = delete;
  MemCharge& operator=(const MemCharge&) = delete;
  MemCharge(MemCharge&& other) noexcept : bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  ~MemCharge() { release(); }

  /// Grow the charge; throws ResourceExhausted without retaining `bytes`.
  void add(std::uint64_t bytes) {
    mem_reserve(bytes);
    bytes_ += bytes;
  }
  void release() noexcept {
    if (bytes_ != 0) {
      mem_release(bytes_);
      bytes_ = 0;
    }
  }
  std::uint64_t held() const noexcept { return bytes_; }

 private:
  std::uint64_t bytes_ = 0;
};

// -- checkpoints ------------------------------------------------------------

/// The cooperative cancellation point. Disarmed cost: a TLS read, two
/// relaxed loads, and a branch. Armed: visits the `governor`
/// fault-injection site, then the current context's cancel flags, then its
/// deadline clock. A bound thread answers ONLY to its own context — that
/// is the isolation guarantee.
inline void checkpoint() {
  if (current_context().armed_relaxed() == 0 && !faultinj::armed()) {
    return;
  }
  detail::checkpoint_slow();
}

/// Scoped per-operation governance, opened at kernel dispatch
/// (pygb/eval.cpp) around kernel EXECUTION — JIT resolution/compilation
/// keeps its own PR 4 deadline. Arms the deadline and latches the op name
/// on the CURRENT context; nested scopes (algorithms dispatching sub-ops)
/// attach to the outermost operation. The outermost destructor disarms the
/// per-op state, so an aborted operation never poisons the next one —
/// while a request-level deadline or sticky cancel stays armed across ops.
class OpScope {
 public:
  explicit OpScope(const char* op_name);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  RequestContext* ctx_ = nullptr;  ///< non-null while engaged
};

// -- introspection ----------------------------------------------------------

Stats stats() noexcept;
void reset_stats() noexcept;

/// Name of the op governed by the default context's current outermost
/// OpScope ("" if idle).
std::string current_op();

/// ASYNC-SIGNAL-SAFE twin of current_op() for the crash handler: copies
/// the op name into `buf` (always NUL-terminated) without locking or
/// allocating. A torn read during a concurrent OpScope transition yields a
/// truncated or mixed name — acceptable in a crash report, where the
/// alternative (taking the name mutex in a signal context) can deadlock.
/// Reads the CALLING thread's context, so a crash on a serving thread
/// attributes to that tenant's op.
void current_op_unsafe(char* buf, std::size_t n) noexcept;

}  // namespace pygb::governor
