// serve/admission.cpp — queue/memory gates and the AIMD concurrency window
// (admission.hpp).
#include "serve/admission.hpp"

#include <algorithm>
#include <chrono>

#include "pygb/governor.hpp"

namespace pygb::serve {

AdmissionController::AdmissionController(const AdmissionConfig& cfg,
                                         std::uint64_t max_concurrency)
    : cfg_(cfg),
      max_window_(std::max<std::uint64_t>(1, max_concurrency)),
      window_(max_window_) {}

Verdict AdmissionController::try_admit(std::uint64_t queue_depth) {
  Verdict v;
  if (cfg_.max_queue != 0 && queue_depth >= cfg_.max_queue) {
    v.admitted = false;
    v.reason = "queue full (" + std::to_string(queue_depth) + " >= " +
               std::to_string(cfg_.max_queue) + ", --max-queue)";
    v.retry_after_ms = cfg_.retry_after_ms;
    return v;
  }
  if (cfg_.mem_high_water_bytes != 0) {
    const std::uint64_t used = governor::stats().mem_current_bytes;
    if (used >= cfg_.mem_high_water_bytes) {
      v.admitted = false;
      v.reason = "memory pressure (" + std::to_string(used) + " >= " +
                 std::to_string(cfg_.mem_high_water_bytes) +
                 " bytes, PYGB_SERVE_MEM_HIGH_WATER_BYTES)";
      // Memory drains as in-flight requests finish; hint a longer retry
      // than the queue case so retries land after charges release.
      v.retry_after_ms = cfg_.retry_after_ms * 4;
      return v;
    }
  }
  return v;
}

bool AdmissionController::acquire_slot(std::uint64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (in_flight_ >= window_ && !draining_) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      if (in_flight_ < window_ && !draining_) break;  // raced a release
      return false;
    }
  }
  if (draining_) return false;
  ++in_flight_;
  return true;
}

void AdmissionController::release_slot(bool transient_failure) noexcept {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (in_flight_ > 0) --in_flight_;
    if (transient_failure) {
      window_ = std::max<std::uint64_t>(1, window_ / 2);
    } else if (window_ < max_window_) {
      ++window_;
    }
  }
  cv_.notify_all();
}

void AdmissionController::wakeup() noexcept {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
}

std::uint64_t AdmissionController::window() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return window_;
}

std::uint64_t AdmissionController::in_flight() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

}  // namespace pygb::serve
