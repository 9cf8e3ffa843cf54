// Integration property sweep: for every paper algorithm, the three
// implementation tiers of Fig. 10 — DSL with host-language outer loops,
// single whole-algorithm dispatch, and native GBTL — produce identical
// results across random graphs (parameterized over seeds and sizes).
#include <gtest/gtest.h>

#include <cstdint>

#include "algorithms/bfs.hpp"
#include "algorithms/dsl_algorithms.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/triangle_count.hpp"
#include "generators/erdos_renyi.hpp"

namespace {

using namespace pygb;  // NOLINT

struct GraphCase {
  gbtl::IndexType n;
  // 64-bit, as gen::paper_graph takes it, so the struct has no padding:
  // gtest prints the parameter byte by byte into the test names, and
  // padding would put stack garbage there.
  std::uint64_t seed;
};

class ThreeTier : public ::testing::TestWithParam<GraphCase> {
 protected:
  Matrix make_graph(bool weighted) const {
    const auto p = GetParam();
    auto el = gen::paper_graph(p.n, p.seed, /*symmetric=*/true, 1.0,
                               weighted ? 8.0 : 1.0);
    return Matrix::from_edge_list(el);
  }
};

TEST_P(ThreeTier, Bfs) {
  Matrix graph = make_graph(false);
  const auto n = graph.nrows();
  Vector frontier(n, DType::kBool);
  frontier.set(0, Scalar(true));

  Vector dsl_levels(n, DType::kInt64);
  const auto d1 = algo::dsl_bfs(graph, frontier.dup(), dsl_levels);

  Vector whole_levels(n, DType::kInt64);
  const auto d2 = algo::whole_bfs(graph, frontier, whole_levels);

  gbtl::Vector<std::int64_t> native_levels(n);
  const auto d3 = algo::bfs_from(graph.typed<double>(), 0, native_levels);

  EXPECT_EQ(d1, d3);
  EXPECT_EQ(d2, d3);
  EXPECT_TRUE(dsl_levels.typed<std::int64_t>() == native_levels);
  EXPECT_TRUE(whole_levels.typed<std::int64_t>() == native_levels);
}

TEST_P(ThreeTier, Sssp) {
  Matrix graph = make_graph(true);
  const auto n = graph.nrows();

  Vector dsl_path(n, DType::kFP64);
  dsl_path.set(0, 0.0);
  algo::dsl_sssp(graph, dsl_path);

  Vector whole_path(n, DType::kFP64);
  whole_path.set(0, 0.0);
  algo::whole_sssp(graph, whole_path);

  gbtl::Vector<double> native_path(n);
  algo::sssp_from(graph.typed<double>(), 0, native_path);

  EXPECT_TRUE(dsl_path.typed<double>() == native_path);
  EXPECT_TRUE(whole_path.typed<double>() == native_path);
}

TEST_P(ThreeTier, TriangleCount) {
  Matrix graph = make_graph(false);
  auto [lower, upper] = split_triangles(graph);
  const auto t_dsl = algo::dsl_triangle_count(lower);
  const auto t_whole = algo::whole_triangle_count(lower);
  const auto t_native =
      algo::triangle_count<std::int64_t>(lower.typed<double>());
  EXPECT_EQ(t_dsl, t_native);
  EXPECT_EQ(t_whole, t_native);
}

TEST_P(ThreeTier, PageRank) {
  Matrix graph = make_graph(false);
  const auto n = graph.nrows();

  Vector dsl_rank = algo::dsl_page_rank(graph);
  Vector whole_rank(n, DType::kFP64);
  algo::whole_page_rank(graph, whole_rank);
  gbtl::Vector<double> native_rank(n);
  algo::page_rank(graph.typed<double>(), native_rank);

  for (gbtl::IndexType v = 0; v < n; ++v) {
    EXPECT_NEAR(dsl_rank.get(v), native_rank.extractElement(v), 1e-12);
    EXPECT_NEAR(whole_rank.get(v), native_rank.extractElement(v), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ThreeTier,
    ::testing::Values(GraphCase{32, 101}, GraphCase{64, 102},
                      GraphCase{128, 103}, GraphCase{200, 104},
                      GraphCase{64, 105}),
    [](const ::testing::TestParamInfo<GraphCase>& info) {
      return "n" + std::to_string(info.param.n) + "_s" +
             std::to_string(info.param.seed);
    });

}  // namespace
