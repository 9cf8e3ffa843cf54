// dsl-small and dsl-large: the paper's algorithms written in the DSL, one
// job running every algorithm on every graph of the workload.
//
// dsl-small uses 16 Erdős–Rényi graphs, 4 each of 64, 128, 192 and 256
// vertices with |E| = |V|^1.5 (the paper's density rule), and the pool at
// 1 thread, so expression build, context lookup, key construction and the
// registry hit are most of each job. dsl-large uses one symmetrised R-MAT graph of 2^15
// vertices and ~16 edges per vertex (a working set beyond L2 and inside
// L3) with the pool at a fixed 2 threads, so kernels dominate.
#include <unistd.h>

#include <algorithm>
#include <span>

#include "algorithms/bfs.hpp"
#include "algorithms/connected_components.hpp"
#include "algorithms/dsl_algorithms.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/triangle_count.hpp"
#include "gbtl/detail/parallel.hpp"
#include "generators/erdos_renyi.hpp"
#include "generators/rmat.hpp"
#include "pygb/pygb.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pygb::DType;
using pygb::Matrix;
using pygb::Scalar;
using pygb::Vector;

struct Graph {
  Matrix unit;      ///< unit weights: bfs, pagerank, tc, cc
  Matrix weighted;  ///< sssp only
  gbtl::IndexType source = 0;
  pygb::gen::EdgeList el_unit, el_weighted;  // inputs kept for the reference
  ref::Graph ref_unit;
  ref::Graph ref_weighted;
  // Outputs of the last job.
  Vector levels, path, rank, labels;
  gbtl::IndexType depth = 0, rounds = 0;
  std::int64_t triangles = 0;
  // Reference results.
  ref::SparseVec want_levels, want_path, want_rank, want_labels;
  std::uint64_t want_depth = 0, want_rounds = 0, want_triangles = 0;
};

std::vector<ref::Arc> arcs_of(const pygb::gen::EdgeList& el) {
  std::vector<ref::Arc> out;
  out.reserve(el.edges.size());
  for (const auto& e : el.edges) out.push_back({e.src, e.dst, e.weight});
  return out;
}

/// Highest out-degree vertex (lowest id on ties): always inside the largest
/// component, so traversals cover most of the graph on every seed.
gbtl::IndexType hub(const pygb::gen::EdgeList& el) {
  std::vector<std::size_t> deg(el.num_vertices, 0);
  for (const auto& e : el.edges) ++deg[e.src];
  return static_cast<gbtl::IndexType>(
      std::max_element(deg.begin(), deg.end()) - deg.begin());
}

}  // namespace

std::vector<pygb::gen::EdgeList> dsl_graphs(bool large, std::uint64_t seed) {
  std::vector<pygb::gen::EdgeList> out;
  if (!large) {
    constexpr int kGraphsPerSize = 4;
    for (int rep = 0; rep < kGraphsPerSize; ++rep) {
      for (gbtl::IndexType n : {64, 128, 192, 256}) {
        out.push_back(pygb::gen::paper_graph(
            n, seed * 1000003 + static_cast<std::uint64_t>(rep) * 1009 + n,
            /*symmetric=*/true, 1.0, 5.0));
      }
    }
    return out;
  }
  pygb::gen::RmatParams p;
  p.scale = 15;
  p.edge_factor = 8;
  p.seed = seed;
  pygb::gen::EdgeList el = pygb::gen::rmat(p);
  const std::size_t m = el.edges.size();
  for (std::size_t k = 0; k < m; ++k) {
    const auto e = el.edges[k];
    el.edges.push_back({e.dst, e.src, e.weight});
  }
  // Both directions of a pair may have been drawn; keep one copy.
  std::sort(el.edges.begin(), el.edges.end(), [](auto& a, auto& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  el.edges.erase(std::unique(el.edges.begin(), el.edges.end(),
                             [](auto& a, auto& b) {
                               return a.src == b.src && a.dst == b.dst;
                             }),
                 el.edges.end());
  out.push_back(std::move(el));
  return out;
}

namespace {

class DslWorkload : public JobWorkload {
 public:
  DslWorkload(const Options& opts, bool large) : opts_(opts), large_(large) {}

  void setup(Tracer& tr, Report& r) override {
    probe_compiler(tr, r);
    const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    threads_ = large_ && nproc >= 2 ? 2u : 1u;
    gbtl::detail::set_num_threads(threads_);
    r.config.push_back({"pool_threads", std::to_string(threads_)});
    std::vector<pygb::gen::EdgeList> lists;
    {
      Tracer::Span s(tr, "generators.build");
      lists = dsl_graphs(large_, opts_.seed);
    }
    for (pygb::gen::EdgeList& weighted : lists) {
      pygb::gen::EdgeList unit = weighted;
      for (auto& e : unit.edges) e.weight = 1.0;
      add_graph(tr, std::move(unit), large_ ? pygb::gen::EdgeList{}
                                            : std::move(weighted));
    }
    r.config.push_back(
        {"graphs", large_ ? "rmat scale 15 edge_factor 8, symmetrised"
                          : "4 each of erdos-renyi |V| 64,128,192,256, "
                            "|E|=|V|^1.5, symmetric, weights 1..5 (sssp) "
                            "or 1"});
    // First calls: load every module the job needs from the disk cache
    // (one graph of each size calls everything a job calls).
    run_algorithms(tr, std::min<std::size_t>(graphs_.size(), 4));
  }

  void prepare_reference() override {
    for (Graph& g : graphs_) {
      g.ref_unit = ref::make_graph(g.el_unit.num_vertices, arcs_of(g.el_unit));
      g.ref_weighted =
          ref::make_graph(g.el_weighted.num_vertices, arcs_of(g.el_weighted));
      g.el_unit = {};
      g.el_weighted = {};
      g.want_levels = ref::bfs_levels(g.ref_unit, g.source, &g.want_depth);
      if (!large_) g.want_path = ref::shortest_paths(g.ref_weighted, g.source);
      g.want_rank = ref::pagerank(g.ref_unit, 0.85, 1e-5, 100000);
      g.want_triangles = ref::triangles(g.ref_unit);
      g.want_labels = ref::component_labels(g.ref_unit);
      g.want_rounds = ref::propagation_rounds(g.ref_unit);
    }
  }

  void job(Tracer& tr) override {
    Tracer::Span job_span(tr, "job");
    run_algorithms(tr, graphs_.size());
  }

  /// Each algorithm across the first `count` graphs, then the next.
  void run_algorithms(Tracer& tr, std::size_t count) {
    const auto graphs = std::span(graphs_).first(count);
    for (Graph& g : graphs) {
      Tracer::Span s(tr, "algorithms.bfs");
      const auto n = g.unit.nrows();
      Vector frontier(n, DType::kBool);
      frontier.set(g.source, Scalar(true));
      g.levels = Vector(n, DType::kInt64);
      g.depth = pygb::algo::dsl_bfs(g.unit, std::move(frontier), g.levels);
    }
    if (!large_) {
      for (Graph& g : graphs) {
        Tracer::Span s(tr, "algorithms.sssp");
        g.path = Vector(g.weighted.nrows(), DType::kFP64);
        g.path.set(g.source, 0.0);
        pygb::algo::dsl_sssp(g.weighted, g.path);
      }
    }
    for (Graph& g : graphs) {
      Tracer::Span s(tr, "algorithms.pagerank");
      g.rank = pygb::algo::dsl_page_rank(g.unit);
    }
    for (Graph& g : graphs) {
      Tracer::Span s(tr, "algorithms.tc");
      auto [lower, upper] = pygb::split_triangles(g.unit);
      g.triangles = pygb::algo::dsl_triangle_count(lower);
    }
    for (Graph& g : graphs) {
      Tracer::Span s(tr, "algorithms.cc");
      g.labels = Vector(g.unit.nrows(), DType::kInt64);
      g.rounds = pygb::algo::dsl_connected_components(g.unit, g.labels);
    }
  }

  bool check(std::string& why) override {
    for (std::size_t k = 0; k < graphs_.size(); ++k) {
      Graph& g = graphs_[k];
      const std::string at = " (graph " + std::to_string(k) + ")";
      if (static_cast<std::uint64_t>(g.depth) != g.want_depth ||
          !ref::same_sparse(to_sparse(g.levels), g.want_levels, 0, 0, why)) {
        why = "bfs" + at + ": depth " + std::to_string(g.depth) + " " + why;
        return false;
      }
      if (!large_ && !ref::same_sparse(to_sparse(g.path), g.want_path, 1e-9,
                                       1e-12, why)) {
        why = "sssp" + at + ": " + why;
        return false;
      }
      if (!ref::same_sparse(to_sparse(g.rank), g.want_rank,
                            ref::kPagerankRelTol, 1e-12, why)) {
        why = "pagerank" + at + ": " + why;
        return false;
      }
      if (static_cast<std::uint64_t>(g.triangles) != g.want_triangles) {
        why = "tc" + at + ": " + std::to_string(g.triangles) + " != " +
              std::to_string(g.want_triangles);
        return false;
      }
      if (static_cast<std::uint64_t>(g.rounds) != g.want_rounds ||
          !ref::same_sparse(to_sparse(g.labels), g.want_labels, 0, 0, why)) {
        why = "cc" + at + ": rounds " + std::to_string(g.rounds) + " " + why;
        return false;
      }
    }
    return true;
  }

  void after_job(Tracer& tr, Report&) override {
    // The same job through the native GBTL algorithms (Fig. 10's base).
    const auto t0 = Clock::now();
    {
      Tracer::Span s(tr, "gbtl.native_job");
      native_job();
    }
    native_ms_.push_back(ms_since(t0));
  }

  void native_job() {
    for (Graph& g : graphs_) {
      const auto& a = g.unit.typed<double>();
      gbtl::Vector<bool> frontier(a.nrows());
      frontier.setElement(g.source, true);
      gbtl::Vector<std::int64_t> levels(a.nrows());
      pygb::algo::bfs(a, frontier, levels);
    }
    if (!large_) {
      for (Graph& g : graphs_) {
        const auto& a = g.weighted.typed<double>();
        gbtl::Vector<double> path(a.nrows());
        path.setElement(g.source, 0.0);
        pygb::algo::sssp(a, path);
      }
    }
    for (Graph& g : graphs_) {
      const auto& a = g.unit.typed<double>();
      gbtl::Vector<double> rank(a.nrows());
      pygb::algo::page_rank(a, rank);
    }
    for (Graph& g : graphs_) {
      pygb::algo::triangle_count_adjacency<std::int64_t>(
          g.unit.typed<double>());
    }
    for (Graph& g : graphs_) {
      const auto& a = g.unit.typed<double>();
      gbtl::Vector<std::int64_t> labels(a.nrows());
      pygb::algo::connected_components(a, labels);
    }
  }

  void after_phase(Tracer& tr, Report& r) override {
    const double native = median(native_ms_);
    const double dsl = median(r.untraced_ms);
    r.layer["gbtl.native_job_ms"] = native;
    if (native > 0) r.layer["dsl.job_over_native"] = dsl / native;
    const double ops = r.layer["dsl.ops_per_job"];
    if (ops > 0) r.layer["dsl.dispatch_us_per_op"] = (dsl - native) * 1e3 / ops;
    for (const char* a : {"bfs", "sssp", "pagerank", "tc", "cc"}) {
      r.layer[std::string("algorithms.") + a + "_ms"] =
          tr.mean_ms(std::string("algorithms.") + a);
    }
    r.layer["generators.build_ms"] = tr.mean_ms("generators.build");
    r.layer["container.build_ms"] = tr.mean_ms("container.build");

    // Requests of the kinds the job dispatches, all in the static table.
    using pygb::jit::MaskKind;
    using pygb::jit::OpRequest;
    std::vector<OpRequest> reqs(4);
    reqs[0].func = pygb::jit::func::kMxV;  // bfs frontier expansion
    reqs[0].c = DType::kBool;
    reqs[0].a = DType::kFP64;
    reqs[0].b = DType::kBool;
    reqs[0].a_transposed = true;
    reqs[0].mask = MaskKind::kVectorComp;
    reqs[0].semiring = pygb::LogicalSemiring();
    reqs[1].func = pygb::jit::func::kMxV;  // sssp relaxation
    reqs[1].a = reqs[1].b = DType::kFP64;
    reqs[1].a_transposed = true;
    reqs[1].semiring = pygb::MinPlusSemiring();
    reqs[1].accum = pygb::BinaryOp("Min");
    reqs[2].func = pygb::jit::func::kVxM;  // pagerank step, unfused
    reqs[2].a = reqs[2].b = DType::kFP64;
    reqs[2].semiring = pygb::ArithmeticSemiring();
    reqs[2].accum = pygb::BinaryOp("Second");
    reqs[3].func = pygb::jit::func::kMxV;
    reqs[3].a = reqs[3].b = DType::kFP64;
    reqs[3].semiring = pygb::ArithmeticSemiring();
    jit_probes(reqs, tr, r);
  }

 private:
  void add_graph(Tracer& tr, pygb::gen::EdgeList unit,
                 pygb::gen::EdgeList weighted) {
    Graph g;
    {
      Tracer::Span s(tr, "container.build");
      g.unit = Matrix::from_edge_list(unit);
      if (!large_) g.weighted = Matrix::from_edge_list(weighted);
    }
    g.source = hub(unit);
    g.el_unit = std::move(unit);
    if (!large_) g.el_weighted = std::move(weighted);
    graphs_.push_back(std::move(g));
  }

  Options opts_;
  bool large_;
  unsigned threads_ = 1;
  std::vector<Graph> graphs_;
  std::vector<double> native_ms_;
};

}  // namespace

std::unique_ptr<JobWorkload> make_dsl_small(const Options& opts) {
  return std::make_unique<DslWorkload>(opts, false);
}

std::unique_ptr<JobWorkload> make_dsl_large(const Options& opts) {
  return std::make_unique<DslWorkload>(opts, true);
}

}  // namespace perfbench
