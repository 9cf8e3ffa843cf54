#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <limits>
#include <numeric>
#include <queue>
#include <sstream>

namespace perfbench::ref {

Graph make_graph(std::uint64_t n, const std::vector<Arc>& arcs) {
  Graph g;
  g.n = n;
  g.out.resize(n);
  for (const Arc& a : arcs) g.out[a.src].push_back({a.dst, a.w});
  for (auto& row : g.out) std::sort(row.begin(), row.end());
  return g;
}

std::size_t SparseVec::nvals() const {
  return static_cast<std::size_t>(
      std::count(present.begin(), present.end(), true));
}

double SparseVec::sum() const {
  double s = 0.0;
  for (std::size_t i = 0; i < val.size(); ++i) {
    if (present[i]) s += val[i];
  }
  return s;
}

namespace {

SparseVec empty_vec(std::uint64_t n) {
  SparseVec v;
  v.present.assign(n, false);
  v.val.assign(n, 0.0);
  return v;
}

}  // namespace

SparseVec bfs_levels(const Graph& g, std::uint64_t src,
                     std::uint64_t* depth) {
  SparseVec lv = empty_vec(g.n);
  std::deque<std::uint64_t> q{src};
  lv.present[src] = true;
  lv.val[src] = 1;
  std::uint64_t deepest = 1;
  while (!q.empty()) {
    const std::uint64_t u = q.front();
    q.pop_front();
    for (const auto& [v, w] : g.out[u]) {
      (void)w;
      if (lv.present[v]) continue;
      lv.present[v] = true;
      lv.val[v] = lv.val[u] + 1;
      deepest = std::max(deepest, static_cast<std::uint64_t>(lv.val[v]));
      q.push_back(v);
    }
  }
  if (depth) *depth = deepest;
  return lv;
}

SparseVec shortest_paths(const Graph& g, std::uint64_t src) {
  SparseVec d = empty_vec(g.n);
  using Item = std::pair<double, std::uint64_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  std::vector<bool> done(g.n, false);
  d.present[src] = true;
  d.val[src] = 0.0;
  pq.push({0.0, src});
  while (!pq.empty()) {
    const auto [du, u] = pq.top();
    pq.pop();
    if (done[u]) continue;
    done[u] = true;
    for (const auto& [v, w] : g.out[u]) {
      const double nd = du + w;
      if (!d.present[v] || nd < d.val[v]) {
        d.present[v] = true;
        d.val[v] = nd;
        pq.push({nd, v});
      }
    }
  }
  return d;
}

std::uint64_t triangles(const Graph& g) {
  // Count each triangle w < v < u once: for every edge (u, v) with v < u,
  // intersect the lower neighbourhoods of u and v below v.
  std::uint64_t count = 0;
  for (std::uint64_t u = 0; u < g.n; ++u) {
    for (const auto& [v, wv] : g.out[u]) {
      (void)wv;
      if (v >= u) break;
      auto a = g.out[u].begin();
      auto b = g.out[v].begin();
      while (a != g.out[u].end() && b != g.out[v].end() && a->first < v &&
             b->first < v) {
        if (a->first < b->first) {
          ++a;
        } else if (b->first < a->first) {
          ++b;
        } else {
          ++count;
          ++a;
          ++b;
        }
      }
    }
  }
  return count;
}

SparseVec component_labels(const Graph& g) {
  std::vector<std::uint64_t> parent(g.n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](std::uint64_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::uint64_t u = 0; u < g.n; ++u) {
    for (const auto& [v, w] : g.out[u]) {
      (void)w;
      const std::uint64_t ru = find(u), rv = find(v);
      // Union by smaller id keeps every root the component minimum.
      if (ru < rv) parent[rv] = ru;
      if (rv < ru) parent[ru] = rv;
    }
  }
  SparseVec lab = empty_vec(g.n);
  for (std::uint64_t v = 0; v < g.n; ++v) {
    lab.present[v] = true;
    lab.val[v] = static_cast<double>(find(v));
  }
  return lab;
}

std::uint64_t propagation_rounds(const Graph& g) {
  std::vector<std::uint64_t> cur(g.n);
  std::iota(cur.begin(), cur.end(), 0);
  std::uint64_t rounds = 0;
  while (rounds < g.n) {
    std::vector<std::uint64_t> next = cur;
    for (std::uint64_t u = 0; u < g.n; ++u) {
      for (const auto& [v, w] : g.out[u]) {
        (void)w;
        next[v] = std::min(next[v], cur[u]);
      }
    }
    ++rounds;
    if (next == cur) break;
    cur.swap(next);
  }
  return rounds;
}

SparseVec pagerank(const Graph& g, double damping, double threshold,
                   unsigned max_iters) {
  const std::uint64_t n = g.n;
  const double nd = static_cast<double>(n);
  const double teleport = (1.0 - damping) / nd;
  // Transition weights m(j, i) = (w / rowsum_j) * damping.
  std::vector<std::vector<std::pair<std::uint64_t, double>>> m(n);
  for (std::uint64_t j = 0; j < n; ++j) {
    double rowsum = 0.0;
    for (const auto& [i, w] : g.out[j]) rowsum += w;
    for (const auto& [i, w] : g.out[j]) {
      m[j].push_back({i, (w / rowsum) * damping});
    }
  }
  SparseVec rank = empty_vec(n);
  std::fill(rank.present.begin(), rank.present.end(), true);
  std::fill(rank.val.begin(), rank.val.end(), 1.0 / nd);
  SparseVec next = empty_vec(n);
  for (unsigned it = 0; it < max_iters; ++it) {
    SparseVec t = empty_vec(n);
    for (std::uint64_t j = 0; j < n; ++j) {
      if (!rank.present[j]) continue;
      for (const auto& [i, mji] : m[j]) {
        t.val[i] = t.present[i] ? t.val[i] + rank.val[j] * mji
                                : rank.val[j] * mji;
        t.present[i] = true;
      }
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      if (t.present[i]) {
        next.present[i] = true;
        next.val[i] = t.val[i];
      }
      if (next.present[i]) next.val[i] += teleport;
    }
    double err = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
      double d = 0.0;
      if (rank.present[i] && next.present[i]) {
        d = rank.val[i] - next.val[i];
      } else if (rank.present[i]) {
        d = rank.val[i];
      } else if (next.present[i]) {
        d = next.val[i];
      } else {
        continue;
      }
      err += d * d;
    }
    rank = next;
    if (err / nd < threshold) break;
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!rank.present[i]) {
      rank.present[i] = true;
      rank.val[i] = teleport;
    }
  }
  return rank;
}

bool same_sparse(const SparseVec& got, const SparseVec& want, double rel_tol,
                 double abs_tol, std::string& why) {
  if (got.present.size() != want.present.size()) {
    why = "size " + std::to_string(got.present.size()) + " != " +
          std::to_string(want.present.size());
    return false;
  }
  for (std::size_t i = 0; i < want.present.size(); ++i) {
    if (got.present[i] != want.present[i]) {
      why = "entry " + std::to_string(i) +
            (want.present[i] ? " missing" : " unexpected");
      return false;
    }
    if (!want.present[i]) continue;
    const double a = got.val[i], b = want.val[i];
    if (!(std::fabs(a - b) <= abs_tol + rel_tol * std::fabs(b))) {
      std::ostringstream os;
      os.precision(17);
      os << "entry " << i << " = " << a << ", expected " << b;
      why = os.str();
      return false;
    }
  }
  return true;
}

SparseVec EdgeModel::row_sums(std::uint64_t n) const {
  SparseVec s = empty_vec(n);
  for (const auto& [ij, v] : e_) {
    s.val[ij.first] += v;
    s.present[ij.first] = true;
  }
  return s;
}

namespace {

double apply_op(const std::string& op, double x, double y) {
  if (op == "Plus") return x + y;
  if (op == "Times") return x * y;
  if (op == "Min") return std::min(x, y);
  if (op == "Max") return std::max(x, y);
  std::abort();  // callers pass only the names documented in the header
}

}  // namespace

SparseVec mxv(const std::vector<double>& a, const std::vector<bool>& a_present,
              const SparseVec& u, const SparseVec& w, const std::string& add,
              const std::string& mult, const std::string& accum) {
  const std::size_t n = u.present.size();
  SparseVec out = w;
  for (std::size_t i = 0; i < n; ++i) {
    bool any = false;
    double t = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      if (!a_present[i * n + k] || !u.present[k]) continue;
      const double prod = apply_op(mult, a[i * n + k], u.val[k]);
      t = any ? apply_op(add, t, prod) : prod;
      any = true;
    }
    if (!any) continue;
    out.val[i] = out.present[i] ? apply_op(accum, out.val[i], t) : t;
    out.present[i] = true;
  }
  return out;
}

bool check_reply(const std::string& result,
                 const std::map<std::string, double>& expected,
                 std::string& why) {
  std::map<std::string, std::string> got;
  std::istringstream in(result);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq != std::string::npos) got[line.substr(0, eq)] = line.substr(eq + 1);
  }
  for (const auto& [key, want] : expected) {
    const auto it = got.find(key);
    if (it == got.end()) {
      why = "reply lacks " + key + "=";
      return false;
    }
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() ||
        !(std::fabs(v - want) <= 1e-5 * std::max(1.0, std::fabs(want)))) {
      std::ostringstream os;
      os.precision(12);
      os << key << "=" << it->second << ", expected " << want;
      why = os.str();
      return false;
    }
  }
  return true;
}

}  // namespace perfbench::ref
