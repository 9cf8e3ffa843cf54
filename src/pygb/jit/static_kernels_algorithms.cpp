// Build-time kernel table: the whole-algorithm kernels.
#include "pygb/jit/glue.hpp"
#include "pygb/jit/static_kernels.hpp"

namespace pygb::jit::static_reg {

namespace {

template <typename CT, typename AT>
constexpr StaticEntry algo(const char* f, KernelFn fn) {
  return {.func = f,
          .fn = fn,
          .c = dtype_of<CT>(),
          .a = dtype_of<AT>()};
}

template <typename CT, typename AT>
constexpr std::array<StaticEntry, 3> algos() {
  StaticEntry bfs = algo<CT, AT>(func::kAlgoBfs, &run_algo_bfs<CT, AT>);
  bfs.b = DType::kBool;
  return {bfs, algo<CT, AT>(func::kAlgoTriangleCount, &run_algo_tc<CT, AT>),
          algo<CT, AT>(func::kAlgoConnectedComponents, &run_algo_cc<CT, AT>)};
}

template <typename CT, typename AT>
constexpr std::array<StaticEntry, 2> float_algos() {
  return {algo<CT, AT>(func::kAlgoSssp, &run_algo_sssp<CT, AT>),
          algo<CT, AT>(func::kAlgoPagerank, &run_algo_pagerank<CT, AT>)};
}

constexpr auto kTable = cat(algos<std::int64_t, double>(),
                            algos<std::int64_t, std::int64_t>(),
                            algos<std::int64_t, bool>(),
                            algos<std::int32_t, double>(),
                            float_algos<double, double>(),
                            float_algos<double, std::int64_t>(),
                            float_algos<float, float>());

}  // namespace

const std::span<const StaticEntry> algorithm_entries{kTable};

}  // namespace pygb::jit::static_reg
