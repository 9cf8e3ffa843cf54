// bench/fig10_common.hpp — shared machinery for the Fig. 10 reproduction:
// each algorithm is measured in the paper's three versions over Erdős–Rényi
// graphs with |E| = |V|^1.5:
//
//   pygb_python_loops — the DSL with outer loops in the host language, one
//                       dispatched operation per DSL statement, plus the
//                       calibrated CPython dispatch-overhead model;
//   pygb_cpp_algorithm — the DSL hands the whole loop to one compiled
//                        module (a single dispatch);
//   native_gbtl        — the templated C++ algorithm called directly.
//
// Expected shape (paper §VI): python-loops slowest at small |V| and
// converging to native as |V| grows; the whole-algorithm version between
// them; native fastest.
#pragma once

#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "algorithms/dsl_algorithms.hpp"
#include "gbtl/detail/backend.hpp"
#include "gbtl/detail/parallel.hpp"
#include "generators/erdos_renyi.hpp"
#include "generators/rmat.hpp"
#include "pygb/pygb.hpp"

namespace fig10 {

/// Calibrated CPython per-dispatch cost (magic-method call + kwargs hash +
/// importlib lookup); see DESIGN.md substitution #1. Override by exporting
/// PYGB_INTERP_NS before launching the bench.
inline constexpr std::int64_t kCPythonDispatchNs = 1500;

/// Build (and memoize per process) the paper's workload graph.
inline const pygb::Matrix& paper_matrix(gbtl::IndexType n, bool weighted) {
  static std::map<std::pair<gbtl::IndexType, bool>, pygb::Matrix> cache;
  auto key = std::make_pair(n, weighted);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto el = pygb::gen::paper_graph(n, /*seed=*/42, /*symmetric=*/true,
                                     1.0, weighted ? 8.0 : 1.0);
    it = cache.emplace(key, pygb::Matrix::from_edge_list(el)).first;
  }
  return it->second;
}

/// Build (and memoize per process) a skew-heavy R-MAT graph for the
/// worker-pool thread sweeps: 2^scale vertices, 16 * 2^scale directed
/// edges with a power-law degree distribution (skewed rows: the pool's
/// equal row blocks carry unequal work).
inline const pygb::Matrix& rmat_matrix(unsigned scale) {
  static std::map<unsigned, pygb::Matrix> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    pygb::gen::RmatParams params;
    params.scale = scale;
    const auto el = pygb::gen::rmat(params);
    it = cache.emplace(scale, pygb::Matrix::from_edge_list(el)).first;
  }
  return it->second;
}

/// RAII guard pinning the worker-pool size for one bench series (restores
/// the previous count so sweeps don't leak state into other benchmarks).
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(unsigned n)
      : saved_(gbtl::detail::num_threads()) {
    gbtl::detail::set_num_threads(n);
  }
  ~ThreadCountGuard() { gbtl::detail::set_num_threads(saved_); }

 private:
  unsigned saved_;
};

/// RAII guard pinning the kernel backend (docs/BACKENDS.md) for one bench
/// series. The native thread-sweep algorithms read the process default, so
/// this is how the sweeps flip between scalar and simd kernels.
class BackendGuard {
 public:
  explicit BackendGuard(bool simd) : saved_(gbtl::detail::default_backend()) {
    gbtl::detail::set_default_backend(simd
                                          ? gbtl::detail::Backend::kSimd
                                          : gbtl::detail::Backend::kScalar);
  }
  ~BackendGuard() { gbtl::detail::set_default_backend(saved_); }

 private:
  gbtl::detail::Backend saved_;
};

/// Per-series baselines for the thread sweeps, keyed by
/// "<bench>/<scale>/<backend>" (1-thread baseline of that backend) and
/// "<bench>/<scale>/<threads>t" (scalar baseline at that thread count).
/// Sweep axes are registered so 1-thread and scalar runs execute before
/// the runs compared against them.
inline std::map<std::string, double>& sweep_baselines() {
  static std::map<std::string, double> baselines;
  return baselines;
}

/// Annotate a thread-sweep run: thread count, graph shape, the speedup
/// over the SAME backend's 1-thread run (`speedup_vs_1t` — per-backend by
/// construction, so the two backends' scaling curves are separable in the
/// bench JSON), and for simd runs the speedup over the scalar backend at
/// the same thread count (`speedup_vs_scalar`).
inline void annotate_sweep(benchmark::State& state, const std::string& series,
                           unsigned scale, unsigned threads, std::size_t nnz,
                           double mean_seconds,
                           const char* backend = "scalar") {
  const std::string key =
      series + "/" + std::to_string(scale) + "/" + backend;
  const std::string xkey =
      series + "/" + std::to_string(scale) + "/" + std::to_string(threads) +
      "t";
  auto& baselines = sweep_baselines();
  if (threads == 1) baselines[key] = mean_seconds;
  const bool is_scalar = std::string(backend) == "scalar";
  if (is_scalar) baselines[xkey] = mean_seconds;
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(threads));
  state.counters["vertices"] =
      benchmark::Counter(static_cast<double>(1u << scale));
  state.counters["edges"] = benchmark::Counter(static_cast<double>(nnz));
  state.counters["simd"] = benchmark::Counter(is_scalar ? 0.0 : 1.0);
  const auto base = baselines.find(key);
  if (base != baselines.end() && mean_seconds > 0.0) {
    state.counters["speedup_vs_1t"] =
        benchmark::Counter(base->second / mean_seconds);
  }
  if (!is_scalar && mean_seconds > 0.0) {
    const auto xbase = baselines.find(xkey);
    if (xbase != baselines.end()) {
      state.counters["speedup_vs_scalar"] =
          benchmark::Counter(xbase->second / mean_seconds);
    }
  }
  state.SetLabel(backend);
}

/// RAII guard applying the CPython overhead model for one bench series.
class PyOverheadGuard {
 public:
  explicit PyOverheadGuard(bool enabled) {
    if (enabled && pygb::interp_overhead_ns() == 0) {
      pygb::set_interp_overhead_ns(kCPythonDispatchNs);
      set_ = true;
    }
  }
  ~PyOverheadGuard() {
    if (set_) pygb::set_interp_overhead_ns(0);
  }

 private:
  bool set_ = false;
};

inline void annotate(benchmark::State& state, std::size_t nnz) {
  state.counters["vertices"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  state.counters["edges"] =
      benchmark::Counter(static_cast<double>(nnz));
}

}  // namespace fig10
