// perfbench/src/reference.hpp — the independent reference checker. Plain
// C++ over adjacency lists: BFS levels by queue, Dijkstra, sorted-adjacency
// triangle counting, power-iteration PageRank, union-find components, a
// std::map edge-set model for ingest, and a dense mxv for JIT-compiled
// kernels. It shares no code with src/gbtl or src/algorithms, so a defect
// there cannot hide by being repeated here.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench::ref {

struct Arc {
  std::uint64_t src;
  std::uint64_t dst;
  double w;
};

/// Out-adjacency lists sorted by destination.
struct Graph {
  std::uint64_t n = 0;
  std::vector<std::vector<std::pair<std::uint64_t, double>>> out;
};
Graph make_graph(std::uint64_t n, const std::vector<Arc>& arcs);

/// A result vector with explicit structure: entry i exists iff present[i].
struct SparseVec {
  std::vector<bool> present;
  std::vector<double> val;
  std::size_t nvals() const;
  double sum() const;
};

/// 1-based BFS levels along out-edges from `src` (the source is level 1);
/// unreached vertices are absent. `depth` receives the deepest level.
SparseVec bfs_levels(const Graph& g, std::uint64_t src, std::uint64_t* depth);

/// Shortest-path distances along out-edges (Dijkstra; weights >= 0).
SparseVec shortest_paths(const Graph& g, std::uint64_t src);

/// Triangles of an undirected simple graph given as a symmetric Graph.
std::uint64_t triangles(const Graph& g);

/// Smallest vertex id of each vertex's component (union-find; the graph
/// must be symmetric for these to be connected components).
SparseVec component_labels(const Graph& g);

/// Rounds of synchronous min-label propagation along out-edges until no
/// label changes, counting the final unchanged round, capped at n.
std::uint64_t propagation_rounds(const Graph& g);

/// Power-iteration PageRank with the structural semantics of the paper's
/// listing: the transition matrix is the row-normalised graph scaled by
/// `damping`; each iteration keeps a vertex's previous value where no
/// ranked in-neighbour contributes (Second accumulator) and adds the
/// teleport term to every stored value; iteration stops when the mean
/// squared change drops below `threshold`; vertices never ranked get the
/// bare teleport term. Values agree with the program to the relative
/// tolerance kPagerankRelTol (summation order may differ).
SparseVec pagerank(const Graph& g, double damping, double threshold,
                   unsigned max_iters);
inline constexpr double kPagerankRelTol = 1e-6;

/// Compare structure exactly and values to |a-b| <= abs_tol + rel_tol*|b|.
/// On mismatch fills `why` with the first differing index.
bool same_sparse(const SparseVec& got, const SparseVec& want, double rel_tol,
                 double abs_tol, std::string& why);

/// Ingest model: the edge set as an ordered map, updated edge by edge.
class EdgeModel {
 public:
  void insert(std::uint64_t i, std::uint64_t j, double v) { e_[{i, j}] = v; }
  void erase(std::uint64_t i, std::uint64_t j) { e_.erase({i, j}); }
  /// Row sums over stored edges (absent for empty rows) — A @ ones.
  SparseVec row_sums(std::uint64_t n) const;
  std::size_t size() const { return e_.size(); }
  const std::map<std::pair<std::uint64_t, std::uint64_t>, double>& edges()
      const {
    return e_;
  }

 private:
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> e_;
};

/// w (+)= A (+).(x) u over small integers, for JIT-compiled mxv kernels.
/// `add` is Plus|Min|Max, `mult` is Times|Plus, `accum` is
/// Plus|Min|Max|Times. A is dense n x n with `a_present` marking entries.
SparseVec mxv(const std::vector<double>& a, const std::vector<bool>& a_present,
              const SparseVec& u, const SparseVec& w, const std::string& add,
              const std::string& mult, const std::string& accum);

/// Check a pygb_serve reply's result lines (`depth=`, `reached=`,
/// `checksum=`, `sum=`, `nvals=`, `components=`) against expected values.
/// Numbers printed with fixed decimals compare to 1e-5 relative.
bool check_reply(const std::string& result,
                 const std::map<std::string, double>& expected,
                 std::string& why);

}  // namespace perfbench::ref
