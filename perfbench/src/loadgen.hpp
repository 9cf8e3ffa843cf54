// perfbench/src/loadgen.hpp — an open-loop load generator. Request k is
// due at start + k / rate whether or not earlier requests have finished;
// at most `max_inflight` run at once, so a stalled server makes later
// requests start late. Each request is timed from when it was due, which
// counts the wait a stall imposes on the requests behind it, and the
// generator reports how late it started each one.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

struct OpenLoopResult {
  std::vector<double> latency_ms;  ///< completion minus due time, by request
  std::vector<double> late_ms;     ///< start minus due time, by request
  std::vector<bool> ok;            ///< what `send` returned, by request
  double wall_s = 0.0;             ///< first due time to last completion
};

/// Issue requests 0, 1, ... due every 1/rate seconds for `seconds`, each
/// by calling send(k) on one of `max_inflight` worker threads. `send` must
/// be safe to call concurrently for distinct k. Every worker is joined
/// before returning.
OpenLoopResult run_open_loop(double rate, double seconds,
                             unsigned max_inflight,
                             const std::function<bool(std::size_t)>& send,
                             std::size_t first_index = 0);

}  // namespace perfbench
