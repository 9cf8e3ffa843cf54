// bench_fig10_tc — Fig. 10, triangle-counting panel: a straight-line
// sequence of operations with no outer loop, so the DSL tier pays only a
// constant handful of dispatches (the penalty vanishes fastest here).
#include "fig10_common.hpp"

#include "bench_json.hpp"

#include <chrono>

#include "algorithms/triangle_count.hpp"

namespace {

using namespace pygb;  // NOLINT

const Matrix& lower_of(gbtl::IndexType n) {
  static std::map<gbtl::IndexType, Matrix> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    auto [lower, upper] = split_triangles(fig10::paper_matrix(n, false));
    it = cache.emplace(n, lower).first;
  }
  return it->second;
}

void BM_TC_PyGB_PythonLoops(benchmark::State& state) {
  const auto n = static_cast<gbtl::IndexType>(state.range(0));
  const Matrix& lower = lower_of(n);
  fig10::PyOverheadGuard overhead(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::dsl_triangle_count(lower));
  }
  fig10::annotate(state, lower.nvals());
}

void BM_TC_PyGB_CppAlgorithm(benchmark::State& state) {
  const auto n = static_cast<gbtl::IndexType>(state.range(0));
  const Matrix& lower = lower_of(n);
  fig10::PyOverheadGuard overhead(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::whole_triangle_count(lower));
  }
  fig10::annotate(state, lower.nvals());
}

void BM_TC_NativeGBTL(benchmark::State& state) {
  const auto n = static_cast<gbtl::IndexType>(state.range(0));
  const auto& lower = lower_of(n).typed<double>();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pygb::algo::triangle_count<std::int64_t>(lower));
  }
  fig10::annotate(state, lower.nvals());
}

/// Lower triangle of a symmetrized R-MAT graph (memoized per scale).
const Matrix& rmat_lower_of(unsigned scale) {
  static std::map<unsigned, Matrix> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    const auto& directed = fig10::rmat_matrix(scale).typed<double>();
    gbtl::Matrix<double> sym(directed.nrows(), directed.ncols());
    // Max keeps duplicate-direction edges at weight 1.0.
    gbtl::eWiseAdd(sym, gbtl::NoMask{}, gbtl::NoAccumulate{},
                   gbtl::Max<double>{}, directed, gbtl::transpose(directed));
    auto [lower, upper] = split_triangles(Matrix::adopt(std::move(sym)));
    it = cache.emplace(scale, lower).first;
  }
  return it->second;
}

/// Worker-pool thread sweep on the masked-dot triangle-count kernel:
/// range(0) = scale, range(1) = GBTL_NUM_THREADS. The power-law degree
/// distribution makes the pool's equal row blocks carry unequal work, so
/// this sweep shows how far static partitioning falls from linear.
void BM_TC_ThreadSweep(benchmark::State& state) {
  const auto scale = static_cast<unsigned>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  const auto& lower = rmat_lower_of(scale).typed<double>();
  fig10::ThreadCountGuard guard(threads);
  double total_seconds = 0.0;
  std::int64_t iters = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        pygb::algo::triangle_count<std::int64_t>(lower));
    total_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    ++iters;
  }
  fig10::annotate_sweep(state, "tc", scale, threads, lower.nvals(),
                        iters > 0 ? total_seconds / iters : 0.0);
}

}  // namespace

BENCHMARK(BM_TC_ThreadSweep)
    ->ArgsProduct({{11, 12}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_TC_PyGB_PythonLoops)
    ->RangeMultiplier(2)
    ->Range(128, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TC_PyGB_CppAlgorithm)
    ->RangeMultiplier(2)
    ->Range(128, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TC_NativeGBTL)
    ->RangeMultiplier(2)
    ->Range(128, 4096)
    ->Unit(benchmark::kMillisecond);

PYGB_BENCH_JSON_MAIN("fig10_tc");
