// pygb/jit/breaker.cpp — the three-state machine (see breaker.hpp).
#include "pygb/jit/breaker.hpp"

#include <algorithm>
#include <cstdint>

#include "pygb/config.hpp"
#include "pygb/faultinj.hpp"
#include "pygb/obs/flightrec.hpp"
#include "pygb/obs/obs.hpp"

namespace pygb::jit {

namespace {

/// Circuit transitions are exactly what a postmortem wants to see, so each
/// one drops a flight event (detail = new state, v1 = key hash to match
/// compile/op events for the same dispatch key).
void record_transition(const char* state, const std::string& key) {
  flightrec::record(flightrec::EventKind::kBreaker, state, 0,
                    flightrec::fnv1a(key.c_str()));
}

}  // namespace

namespace {

/// Stored failure causes are a TAIL, size-capped: a JIT failure message
/// leads with boilerplate (key, command line) and ends with the captured
/// compiler stderr — the part a human needs. And the breaker map lives for
/// the process, so an unbounded cause per key would let a chatty compiler
/// grow it without limit.
constexpr std::size_t kCauseCapBytes = 512;

std::string capped_cause_tail(const std::string& cause) {
  if (cause.size() <= kCauseCapBytes) return cause;
  return "…" + cause.substr(cause.size() - kCauseCapBytes);
}

}  // namespace

const char* to_string(BreakerState s) noexcept {
  switch (s) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

CircuitBreaker::Config CircuitBreaker::config_from_env() {
  Config cfg;
  cfg.failure_threshold =
      static_cast<int>(config::get("PYGB_BREAKER_THRESHOLD"));
  cfg.open_ttl_ms = static_cast<int>(config::get("PYGB_BREAKER_TTL_MS"));
  return cfg;
}

CircuitBreaker::Decision CircuitBreaker::acquire(const std::string& key) {
  std::lock_guard lock(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end()) return Decision::kAllow;
  KeyState& ks = it->second;
  switch (ks.state) {
    case BreakerState::kClosed:
      return Decision::kAllow;
    case BreakerState::kOpen:
      if (!ks.permanent && Clock::now() >= ks.open_until) {
        ks.state = BreakerState::kHalfOpen;
        ks.probe_inflight = true;
        obs::counter_add(obs::Counter::kBreakerProbes);
        record_transition("half-open", key);
        return Decision::kProbe;
      }
      obs::counter_add(obs::Counter::kBreakerShortCircuits);
      return Decision::kShortCircuit;
    case BreakerState::kHalfOpen:
      if (!ks.probe_inflight) {
        ks.probe_inflight = true;
        obs::counter_add(obs::Counter::kBreakerProbes);
        return Decision::kProbe;
      }
      obs::counter_add(obs::Counter::kBreakerShortCircuits);
      return Decision::kShortCircuit;
  }
  return Decision::kAllow;
}

void CircuitBreaker::on_success(const std::string& key) {
  std::lock_guard lock(mu_);
  if (keys_.erase(key) != 0) {  // fully healed; no state is closed
    record_transition("closed", key);
  }
}

void CircuitBreaker::on_failure(const std::string& key, bool transient,
                                const std::string& cause) {
  std::lock_guard lock(mu_);
  KeyState& ks = keys_[key];
  ks.probe_inflight = false;
  ++ks.consecutive_failures;
  ks.cause = capped_cause_tail(cause);
  if (!transient) {
    // Deterministic rejection: retrying is futile until the caches are
    // cleared. Open now, never half-open (the old negative cache).
    if (ks.state != BreakerState::kOpen) {
      obs::counter_add(obs::Counter::kBreakerOpens);
      record_transition("open", key);
    }
    ks.state = BreakerState::kOpen;
    ks.permanent = true;
    return;
  }
  if (ks.state == BreakerState::kHalfOpen ||
      ks.consecutive_failures >= cfg_.failure_threshold) {
    // A failed probe re-opens; threshold crossings open. The TTL is
    // jittered in [0.75, 1.25) of the nominal value so that many server
    // threads (or many keys broken by one incident, e.g. a wedged
    // compiler) don't all reach half-open in the same instant and
    // thundering-herd the recompile path; the draw replays under a
    // PYGB_FAULTS seed (faultinj::jitter_unit).
    if (ks.state != BreakerState::kOpen) {
      obs::counter_add(obs::Counter::kBreakerOpens);
      record_transition("open", key);
    }
    ks.state = BreakerState::kOpen;
    const double spread =
        0.75 + 0.5 * faultinj::jitter_unit(
                         flightrec::fnv1a(key.c_str()),
                         static_cast<std::uint64_t>(ks.consecutive_failures));
    const auto ttl = std::chrono::milliseconds(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               static_cast<double>(cfg_.open_ttl_ms) * spread)));
    ks.open_until = Clock::now() + ttl;
  }
}

BreakerState CircuitBreaker::state(const std::string& key) const {
  std::lock_guard lock(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end()) return BreakerState::kClosed;
  // Report the observable state: an expired non-permanent open is one
  // acquire() away from half-open.
  return it->second.state;
}

std::string CircuitBreaker::describe(const std::string& key) const {
  std::lock_guard lock(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end()) return "circuit closed";
  const KeyState& ks = it->second;
  std::string out = "circuit ";
  out += to_string(ks.state);
  if (ks.permanent) out += " (permanent failure)";
  out += " after " + std::to_string(ks.consecutive_failures) + " failure(s)";
  if (!ks.cause.empty()) out += "; last cause: " + ks.cause;
  return out;
}

void CircuitBreaker::reset() {
  std::lock_guard lock(mu_);
  keys_.clear();
  // Re-read the env knobs: a reset marks a fresh start (cache clear,
  // test fixture), and PYGB_BREAKER_* may have changed since construction.
  cfg_ = config_from_env();
}

}  // namespace pygb::jit
