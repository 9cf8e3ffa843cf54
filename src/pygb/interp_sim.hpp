// pygb/interp_sim.hpp — the CPython-overhead model (DESIGN.md substitution
// #1). Real PyGB pays Python magic-method dispatch, kwargs hashing, and
// importlib lookup on every operation. Our DSL performs the same steps
// natively and therefore faster; to reproduce the *magnitude* of the
// paper's "Python loops" series, benchmarks enable a calibrated busy-wait
// per dispatched operation.
//
// Configuration: set_interp_overhead_ns(). Default 0 (disabled) — the
// library itself never slows anything down; only the Fig. 10 benches turn
// this on.
#pragma once

#include <cstdint>

namespace pygb {

/// Current per-dispatch overhead in nanoseconds (0 = disabled).
std::int64_t interp_overhead_ns();

/// Set the overhead (0 disables it).
void set_interp_overhead_ns(std::int64_t ns);

namespace detail {

/// Busy-wait for the configured overhead; no-op when disabled.
void interp_pause();

}  // namespace detail

}  // namespace pygb
