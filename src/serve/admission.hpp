// serve/admission.hpp — admission control and load shedding for pygb_serve
// (docs/SERVING.md).
//
// Two gates, checked in order the moment a connection becomes a request:
//
//   1. QUEUE DEPTH — max_queue (--max-queue) caps the number of accepted
//      connections waiting for a worker. Past the cap, the server replies
//      `overloaded` (with a retry_after_ms hint) WITHOUT reading the
//      request payload: shedding must cost less than serving, or shedding
//      is just slower serving.
//   2. MEMORY HIGH WATER — PYGB_SERVE_MEM_HIGH_WATER_BYTES (default: 90%
//      of PYGB_MEM_LIMIT_BYTES) sheds new work while the governor's
//      process-wide gauge is above the mark. In-flight requests keep their
//      charges; new tenants wait. This turns "the next request would have
//      OOM-aborted three tenants' ops" into "one tenant saw a typed
//      overloaded reply and retried".
//
// Plus an AIMD CONCURRENCY WINDOW between admission and execution: a
// request holds a slot while it runs. Transient failures (compile timeouts
// under load, breaker opens, governor rejections) HALVE the window;
// successes grow it back by one, up to the worker count. This is the
// slow-start half of graceful degradation: after a breaker-open storm the
// server probes its way back to full concurrency instead of stampeding the
// compiler with one simultaneous recompile per worker.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

namespace pygb::serve {

/// Knobs, resolved once at server start (ServerConfig::from_env).
struct AdmissionConfig {
  std::uint64_t max_queue = 64;  ///< --max-queue (0 = no cap)
  /// PYGB_SERVE_MEM_HIGH_WATER_BYTES; 0 = disabled. Defaults to 90% of
  /// PYGB_MEM_LIMIT_BYTES when that limit is set.
  std::uint64_t mem_high_water_bytes = 0;
  std::uint64_t retry_after_ms = 250;  ///< hint in overloaded replies
};

/// One admission decision. When !admitted, `reason` is a human message and
/// `retry_after_ms` the backpressure hint for the typed reply.
struct Verdict {
  bool admitted = true;
  std::string reason;
  std::uint64_t retry_after_ms = 0;
};

/// The gate. Thread-safe; one instance per server.
class AdmissionController {
 public:
  AdmissionController(const AdmissionConfig& cfg,
                      std::uint64_t max_concurrency);

  /// Gate 1+2: may this connection become a request right now?
  /// `queue_depth` is the caller's count of accepted-but-unserved
  /// connections (the controller does not own the queue).
  Verdict try_admit(std::uint64_t queue_depth);

  /// Block until a concurrency slot inside the current AIMD window frees,
  /// or `timeout_ms` passes (false = shed as overloaded). A wakeup()
  /// (server drain) also returns false immediately.
  bool acquire_slot(std::uint64_t timeout_ms);

  /// Return a slot. `transient_failure` = the request died to a transient
  /// cause (deadline, budget, compile trouble) — halves the window;
  /// otherwise the window grows by one toward max_concurrency.
  void release_slot(bool transient_failure) noexcept;

  /// Release every waiter with failure (drain path).
  void wakeup() noexcept;

  std::uint64_t window() const noexcept;
  std::uint64_t in_flight() const noexcept;

 private:
  AdmissionConfig cfg_;
  const std::uint64_t max_window_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t window_;       ///< current AIMD cap on in_flight_
  std::uint64_t in_flight_ = 0;
  bool draining_ = false;
};

}  // namespace pygb::serve
