// pygb/governor.cpp — see governor.hpp. Leaf implementation: atomics for
// every hot slot, one mutex per context guarding only the (cold) name
// buffers. Event counters (cancels, deadline trips, rejections,
// checkpoints) are process-global aggregates; budgets, deadlines, and
// cancel flags live in the RequestContext they belong to.
#include "pygb/governor.hpp"

#include <chrono>

#include "pygb/config.hpp"
#include "pygb/obs/flightrec.hpp"

namespace pygb::governor {

namespace detail {
RequestContext g_default_ctx;
constinit thread_local RequestContext* t_bound = nullptr;
}  // namespace detail

namespace {

// Stats (aggregated across every context).
std::atomic<std::uint64_t> g_ops_cancelled{0};
std::atomic<std::uint64_t> g_ops_deadline_exceeded{0};
std::atomic<std::uint64_t> g_mem_rejections{0};
std::atomic<std::uint64_t> g_checkpoints{0};

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The per-op timeout that applies to `ctx`: its own, or the default
/// context's when it never set one (PYGB_OP_TIMEOUT_MS as server default).
std::uint64_t effective_timeout_ms(const RequestContext& ctx) noexcept {
  const std::uint64_t own = ctx.op_timeout_ms();
  if (own != 0 || &ctx == &detail::g_default_ctx) return own;
  return detail::g_default_ctx.op_timeout_ms();
}

/// True when an OpScope should engage on `ctx`: any governance is
/// configured or a fault spec might target the governor site.
bool config_active(const RequestContext& ctx) noexcept {
  return effective_timeout_ms(ctx) != 0 || ctx.mem_limit_bytes() != 0 ||
         detail::g_default_ctx.mem_limit_bytes() != 0 ||
         ctx.cancel_requested() || ctx.armed_relaxed() != 0 ||
         faultinj::armed();
}

/// PYGB_MEM_LIMIT_BYTES / PYGB_OP_TIMEOUT_MS, read once at static-init
/// time, where a malformed value can only abort.
struct EnvActivation {
  EnvActivation() {
    try {
      set_mem_limit_bytes(config::get("PYGB_MEM_LIMIT_BYTES"));
      set_op_timeout_ms(config::get("PYGB_OP_TIMEOUT_MS"));
    } catch (const config::BadValue& e) {
      config::fatal(e);
    }
  }
};
const EnvActivation g_env_activation;

}  // namespace

// -- RequestContext ----------------------------------------------------------

void RequestContext::set_request_deadline_ms(std::uint64_t ms) noexcept {
  if (ms == 0) {
    request_deadline_ns_.store(0, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t deadline = now_ns() + ms * 1000000u;
  request_deadline_ns_.store(deadline, std::memory_order_relaxed);
  // Arm immediately so checkpoints BETWEEN ops honor the cap too; an
  // OpScope opened later tightens deadline_ns_ to min(op, request).
  deadline_ns_.store(deadline, std::memory_order_relaxed);
  armed_.fetch_or(detail::kDeadlineArmed, std::memory_order_release);
}

std::uint64_t RequestContext::request_deadline_remaining_ms()
    const noexcept {
  const std::uint64_t deadline =
      request_deadline_ns_.load(std::memory_order_relaxed);
  if (deadline == 0) return 0;
  const std::uint64_t now = now_ns();
  if (now >= deadline) return 1;
  const std::uint64_t left_ms = (deadline - now) / 1000000u;
  return left_ms == 0 ? 1 : left_ms;
}

void RequestContext::cancel() noexcept {
  sticky_cancel_.store(true, std::memory_order_relaxed);
  armed_.fetch_or(detail::kCancelArmed, std::memory_order_release);
}

void RequestContext::set_label(const char* label) noexcept {
  std::lock_guard<std::mutex> lock(name_mu_);
  std::size_t i = 0;
  for (; label != nullptr && label[i] != '\0' && i + 1 < sizeof label_; ++i) {
    label_[i] = label[i];
  }
  label_[i] = '\0';
}

void RequestContext::charge(std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t used =
      mem_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  const std::uint64_t limit = mem_limit_.load(std::memory_order_relaxed);
  if (limit != 0 && used > limit) {
    mem_used_.fetch_sub(bytes, std::memory_order_relaxed);
    g_mem_rejections.fetch_add(1, std::memory_order_relaxed);
    flightrec::record(flightrec::EventKind::kGovernor, "mem_reject", bytes,
                      used);
    const bool is_default = this == &detail::g_default_ctx;
    throw ResourceExhausted(
        "pygb: operation '" + op_label() + "' rejected: charging " +
        std::to_string(bytes) + " bytes would put " + std::to_string(used) +
        " bytes in use, over the " + std::to_string(limit) + "-byte " +
        (is_default ? "budget (PYGB_MEM_LIMIT_BYTES)" : "request budget"));
  }
  // Peak reflects granted charges only.
  std::uint64_t peak = mem_peak_.load(std::memory_order_relaxed);
  while (used > peak && !mem_peak_.compare_exchange_weak(
                            peak, used, std::memory_order_relaxed)) {
  }
}

void RequestContext::uncharge(std::uint64_t bytes) noexcept {
  if (bytes == 0) return;
  // CAS loop clamped at zero: an unmatched release (a JIT module whose
  // reserve predated PoolApi injection) must not wrap the gauge into a
  // near-2^64 value that rejects everything afterwards.
  std::uint64_t cur = mem_used_.load(std::memory_order_relaxed);
  while (!mem_used_.compare_exchange_weak(
      cur, cur > bytes ? cur - bytes : 0, std::memory_order_relaxed)) {
  }
}

std::string RequestContext::op_label() const {
  std::lock_guard<std::mutex> lock(name_mu_);
  std::string s = op_name_[0] != '\0' ? op_name_ : "<op>";
  if (label_[0] != '\0') {
    s += " [";
    s += label_;
    s += "]";
  }
  return s;
}

std::uint64_t RequestContext::op_elapsed_ms() const noexcept {
  const std::uint64_t start = op_start_ns_.load(std::memory_order_relaxed);
  if (start == 0) return 0;
  const std::uint64_t now = now_ns();
  return now > start ? (now - start) / 1000000u : 0;
}

// -- configuration ----------------------------------------------------------

void set_mem_limit_bytes(std::uint64_t bytes) noexcept {
  detail::g_default_ctx.set_mem_limit_bytes(bytes);
}

std::uint64_t mem_limit_bytes() noexcept {
  return detail::g_default_ctx.mem_limit_bytes();
}

void set_op_timeout_ms(std::uint64_t ms) noexcept {
  detail::g_default_ctx.set_op_timeout_ms(ms);
}

std::uint64_t op_timeout_ms() noexcept {
  return detail::g_default_ctx.op_timeout_ms();
}

void cancel() noexcept {
  RequestContext& ctx = detail::g_default_ctx;
  ctx.oneshot_cancel_.store(true, std::memory_order_relaxed);
  // Arm the in-flight op (if any); an idle cancel is consumed by the next
  // OpScope, which recomputes the armed word from the flag.
  ctx.armed_.fetch_or(detail::kCancelArmed, std::memory_order_release);
}

bool cancel_requested() noexcept {
  return detail::g_default_ctx.oneshot_cancel_.load(
      std::memory_order_relaxed);
}

// -- memory budget ----------------------------------------------------------

void mem_reserve(std::uint64_t bytes) {
  if (bytes == 0) return;
  RequestContext* bound = detail::t_bound;
  if (bound != nullptr) bound->charge(bytes);  // per-request budget first
  try {
    detail::g_default_ctx.charge(bytes);  // process-wide budget and gauge
  } catch (...) {
    if (bound != nullptr) bound->uncharge(bytes);
    throw;
  }
}

void mem_release(std::uint64_t bytes) noexcept {
  if (bytes == 0) return;
  if (RequestContext* bound = detail::t_bound) bound->uncharge(bytes);
  detail::g_default_ctx.uncharge(bytes);
}

// -- checkpoints ------------------------------------------------------------

namespace detail {

void checkpoint_slow() {
  g_checkpoints.fetch_add(1, std::memory_order_relaxed);
  RequestContext& ctx = current_context();

  // Fault injection first: lets chaos tests fire budget/deadline failures
  // at an exact checkpoint (n=K) with no real budget or clock involved.
  if (const auto d = faultinj::check(faultinj::site::kGovernor)) {
    if (d.action == faultinj::Action::kFail) {
      g_mem_rejections.fetch_add(1, std::memory_order_relaxed);
      throw ResourceExhausted("pygb: operation '" + ctx.op_label() +
                              "': injected budget exhaustion at checkpoint "
                              "(faultinj governor:fail)");
    }
    g_ops_deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    throw DeadlineExceeded("pygb: operation '" + ctx.op_label() +
                           "': injected deadline at checkpoint (faultinj "
                           "governor:" +
                           std::string(faultinj::to_string(d.action)) + ")");
  }

  const std::uint32_t armed = ctx.armed_.load(std::memory_order_acquire);
  if (armed & kCancelArmed) {
    if (ctx.sticky_cancel_.load(std::memory_order_relaxed)) {
      // Request-level cancel (client disconnect): never consumed — every
      // op in this context dies until the context does. Counted once.
      if (!ctx.sticky_counted_.exchange(true, std::memory_order_relaxed)) {
        g_ops_cancelled.fetch_add(1, std::memory_order_relaxed);
        flightrec::record(flightrec::EventKind::kGovernor, "cancel",
                          ctx.op_elapsed_ms());
      }
      throw Cancelled("pygb: operation '" + ctx.op_label() +
                      "' cancelled (request aborted) after " +
                      std::to_string(ctx.op_elapsed_ms()) + " ms");
    }
    if (ctx.depth_.load(std::memory_order_acquire) == 0) {
      // No OpScope owns the armed word (a native-tier gbtl call, say):
      // consume the pending cancel here, or clear a stale bit left by an
      // already-consumed request so it can't cancel every op forever.
      bool expected = true;
      if (ctx.oneshot_cancel_.compare_exchange_strong(
              expected, false, std::memory_order_relaxed)) {
        ctx.armed_.fetch_and(~kCancelArmed, std::memory_order_release);
        g_ops_cancelled.fetch_add(1, std::memory_order_relaxed);
        throw Cancelled("pygb: operation '" + ctx.op_label() +
                        "' cancelled after " +
                        std::to_string(ctx.op_elapsed_ms()) + " ms");
      }
      ctx.armed_.fetch_and(~kCancelArmed, std::memory_order_release);
    } else {
      // Scoped op: the winner consumes the request (exactly one op per
      // cancel) and counts the event; every thread of the op still throws
      // until the outermost scope exit disarms the word.
      if (!ctx.op_aborted_.exchange(true, std::memory_order_relaxed)) {
        ctx.oneshot_cancel_.store(false, std::memory_order_relaxed);
        g_ops_cancelled.fetch_add(1, std::memory_order_relaxed);
        flightrec::record(flightrec::EventKind::kGovernor, "cancel",
                          ctx.op_elapsed_ms());
      }
      throw Cancelled("pygb: operation '" + ctx.op_label() +
                      "' cancelled after " +
                      std::to_string(ctx.op_elapsed_ms()) + " ms");
    }
  }
  if (armed & kDeadlineArmed) {
    const std::uint64_t deadline =
        ctx.deadline_ns_.load(std::memory_order_relaxed);
    if (deadline != 0 && now_ns() >= deadline) {
      if (!ctx.op_aborted_.exchange(true, std::memory_order_relaxed)) {
        g_ops_deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
        flightrec::record(flightrec::EventKind::kGovernor, "deadline",
                          ctx.op_elapsed_ms());
      }
      const std::uint64_t req =
          ctx.request_deadline_ns_.load(std::memory_order_relaxed);
      const bool request_cap = req != 0 && deadline == req;
      throw DeadlineExceeded(
          "pygb: operation '" + ctx.op_label() + "': " +
          (request_cap
               ? std::string("request deadline")
               : "deadline of " +
                     std::to_string(effective_timeout_ms(ctx)) +
                     " ms (PYGB_OP_TIMEOUT_MS)") +
          " exceeded after " + std::to_string(ctx.op_elapsed_ms()) + " ms");
    }
  }
}

}  // namespace detail

// -- OpScope ----------------------------------------------------------------

OpScope::OpScope(const char* op_name) {
  RequestContext& ctx = current_context();
  if (!config_active(ctx)) return;
  ctx_ = &ctx;
  if (ctx.depth_.fetch_add(1, std::memory_order_acq_rel) != 0) return;

  // Outermost scope in this context: latch the name, the start time, and
  // the armed word.
  {
    std::lock_guard<std::mutex> lock(ctx.name_mu_);
    std::size_t i = 0;
    for (; op_name != nullptr && op_name[i] != '\0' &&
           i + 1 < sizeof ctx.op_name_;
         ++i) {
      ctx.op_name_[i] = op_name[i];
    }
    ctx.op_name_[i] = '\0';
  }
  const std::uint64_t now = now_ns();
  ctx.op_start_ns_.store(now, std::memory_order_relaxed);
  ctx.op_aborted_.store(false, std::memory_order_relaxed);

  std::uint32_t armed = 0;
  std::uint64_t deadline = 0;
  const std::uint64_t timeout = effective_timeout_ms(ctx);
  if (timeout != 0) deadline = now + timeout * 1000000u;
  const std::uint64_t req =
      ctx.request_deadline_ns_.load(std::memory_order_relaxed);
  if (req != 0 && (deadline == 0 || req < deadline)) deadline = req;
  ctx.deadline_ns_.store(deadline, std::memory_order_relaxed);
  if (deadline != 0) armed |= detail::kDeadlineArmed;
  if (ctx.cancel_requested()) armed |= detail::kCancelArmed;
  ctx.armed_.store(armed, std::memory_order_release);
}

OpScope::~OpScope() {
  if (ctx_ == nullptr) return;
  RequestContext& ctx = *ctx_;
  if (ctx.depth_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Outermost exit: disarm the per-op state so an aborted op can't poison
  // the next one. A one-shot cancel that fired mid-op was already consumed
  // by the checkpoint winner; one that never got a checkpoint dies here
  // too — the op it targeted has completed. Request-LEVEL state (the
  // whole-request deadline, a sticky cancel) stays armed: those outlive
  // individual ops by design.
  const std::uint64_t req =
      ctx.request_deadline_ns_.load(std::memory_order_relaxed);
  std::uint32_t armed = 0;
  if (req != 0) armed |= detail::kDeadlineArmed;
  if (ctx.sticky_cancel_.load(std::memory_order_relaxed)) {
    armed |= detail::kCancelArmed;
  }
  ctx.armed_.store(armed, std::memory_order_release);
  ctx.deadline_ns_.store(req, std::memory_order_relaxed);
  ctx.op_start_ns_.store(0, std::memory_order_relaxed);
  ctx.op_aborted_.store(false, std::memory_order_relaxed);
  ctx.oneshot_cancel_.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(ctx.name_mu_);
  ctx.op_name_[0] = '\0';
}

// -- introspection ----------------------------------------------------------

Stats stats() noexcept {
  Stats s;
  s.ops_cancelled = g_ops_cancelled.load(std::memory_order_relaxed);
  s.ops_deadline_exceeded =
      g_ops_deadline_exceeded.load(std::memory_order_relaxed);
  s.mem_budget_rejections = g_mem_rejections.load(std::memory_order_relaxed);
  s.mem_peak_bytes = detail::g_default_ctx.mem_peak_bytes();
  s.mem_current_bytes = detail::g_default_ctx.mem_current_bytes();
  s.checkpoints = g_checkpoints.load(std::memory_order_relaxed);
  return s;
}

void reset_stats() noexcept {
  g_ops_cancelled.store(0, std::memory_order_relaxed);
  g_ops_deadline_exceeded.store(0, std::memory_order_relaxed);
  g_mem_rejections.store(0, std::memory_order_relaxed);
  g_checkpoints.store(0, std::memory_order_relaxed);
  // The peak restarts from the live gauge (which is NOT a resettable
  // counter — it tracks charges still held).
  RequestContext& ctx = detail::g_default_ctx;
  ctx.mem_peak_.store(ctx.mem_used_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
}

std::string current_op() {
  RequestContext& ctx = detail::g_default_ctx;
  std::lock_guard<std::mutex> lock(ctx.name_mu_);
  return std::string(ctx.op_name_);
}

void current_op_unsafe(char* buf, std::size_t n) noexcept {
  if (buf == nullptr || n == 0) return;
  // Deliberately lock-free (see header): raw byte copy, stop at the
  // buffer edge either side.
  const RequestContext& ctx = current_context();
  std::size_t i = 0;
  for (; i + 1 < n && i + 1 < sizeof ctx.op_name_ && ctx.op_name_[i] != '\0';
       ++i) {
    buf[i] = ctx.op_name_[i];
  }
  buf[i] = '\0';
}

}  // namespace pygb::governor
