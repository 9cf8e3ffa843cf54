// serve/session.cpp — graph-spec resolution, the shared LRU, and the
// typed-error execution path (session.hpp).
#include "serve/session.hpp"

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "algorithms/dsl_algorithms.hpp"
#include "generators/classic.hpp"
#include "generators/erdos_renyi.hpp"
#include "generators/rmat.hpp"
#include "io/matrix_market.hpp"
#include "pygb/obs/flightrec.hpp"
#include "pygb/utilities.hpp"

namespace pygb::serve {

namespace {

std::uint64_t spec_number(const std::string& spec, const std::string& field) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(field.c_str(), &end, 10);
  if (field.empty() || errno != 0 || end != field.c_str() + field.size()) {
    throw std::invalid_argument("bad number in graph spec '" + spec + "'");
  }
  return v;
}

/// Parse and build one graph (no caching, no charging — GraphCache::get
/// owns those). Throws std::invalid_argument on malformed specs.
Matrix build_graph(const std::string& spec, const SessionConfig& cfg) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    throw std::invalid_argument("bad graph spec '" + spec +
                                "' (want family:args)");
  }
  const std::string family = spec.substr(0, colon);
  const std::string rest = spec.substr(colon + 1);

  if (family == "rmat") {
    gen::RmatParams p;
    const std::size_t colon2 = rest.find(':');
    const std::string scale_s =
        colon2 == std::string::npos ? rest : rest.substr(0, colon2);
    p.scale = static_cast<unsigned>(spec_number(spec, scale_s));
    if (colon2 != std::string::npos) {
      p.edge_factor =
          static_cast<std::size_t>(spec_number(spec, rest.substr(colon2 + 1)));
      if (p.edge_factor == 0 || p.edge_factor > 64) {
        throw std::invalid_argument("edge_factor out of range in '" + spec +
                                    "' (want 1..64)");
      }
    }
    if (p.scale > cfg.max_scale) {
      throw std::invalid_argument(
          "rmat scale " + std::to_string(p.scale) + " exceeds cap " +
          std::to_string(cfg.max_scale) + " (PYGB_SERVE_MAX_SCALE)");
    }
    return Matrix::from_edge_list(gen::rmat(p));
  }
  if (family == "er" || family == "ring" || family == "path" ||
      family == "star") {
    const std::uint64_t n = spec_number(spec, rest);
    // Same cap as rmat, expressed in vertices: request-named sizes must be
    // bounded or one client's spec is the server's OOM.
    const std::uint64_t max_n = std::uint64_t{1} << cfg.max_scale;
    if (n < 2 || n > max_n) {
      throw std::invalid_argument("graph size " + std::to_string(n) +
                                  " out of range in '" + spec + "' (want 2.." +
                                  std::to_string(max_n) + ")");
    }
    const auto nn = static_cast<gbtl::IndexType>(n);
    if (family == "er") {
      return Matrix::from_edge_list(
          gen::paper_graph(nn, /*seed=*/42, /*symmetric=*/true, 1.0, 5.0));
    }
    if (family == "ring") {
      return Matrix::from_edge_list(gen::cycle_graph(nn, /*symmetric=*/true));
    }
    if (family == "path") {
      return Matrix::from_edge_list(gen::path_graph(nn, /*symmetric=*/true));
    }
    return Matrix::from_edge_list(gen::star_graph(nn, /*symmetric=*/true));
  }
  if (family == "file") {
    if (!cfg.allow_files) {
      throw std::invalid_argument(
          "file: graph specs are disabled (set PYGB_SERVE_ALLOW_FILES=1)");
    }
    return Matrix::from_coo(io::read_matrix_market(rest));
  }
  throw std::invalid_argument("unknown graph family '" + family + "' in '" +
                              spec + "'");
}

/// Adjacency footprint estimate for the cache entry's governor charge:
/// CSR-ish index+value storage per edge plus row pointers.
std::uint64_t graph_bytes(const Matrix& m) {
  return static_cast<std::uint64_t>(m.nvals()) * 16 +
         static_cast<std::uint64_t>(m.nrows()) * 8;
}

double vector_sum(const Vector& v) {
  double sum = 0.0;
  const gbtl::IndexType n = v.size();
  for (gbtl::IndexType i = 0; i < n; ++i) {
    if (v.has_element(i)) sum += v.get(i);
  }
  return sum;
}

}  // namespace

Matrix GraphCache::get(const std::string& spec) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->spec == spec) {
        lru_.splice(lru_.begin(), lru_, it);
        return lru_.front().graph;
      }
    }
  }
  // Build OUTSIDE the lock (a scale-20 rmat takes seconds; concurrent
  // requests for other graphs must not queue behind it — a duplicate
  // build of the SAME spec is possible and benign, the loser's entry just
  // gets evicted first) and OUTSIDE any request context: the graph is
  // shared infrastructure, charged to the process-wide gauge and immune to
  // this tenant's deadline/cancel.
  governor::ThreadBind unbind(nullptr);
  Entry entry;
  entry.spec = spec;
  entry.graph = build_graph(spec, cfg_);
  entry.charge.add(graph_bytes(entry.graph));  // may throw ResourceExhausted

  std::lock_guard<std::mutex> lock(mu_);
  lru_.push_front(std::move(entry));
  while (lru_.size() > cfg_.graph_cache_cap) {
    lru_.pop_back();  // ~MemCharge returns the bytes to the gauge
  }
  return lru_.front().graph;
}

std::size_t GraphCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

Response execute(const Request& req, GraphCache& cache,
                 std::uint64_t request_id) {
  const auto start = std::chrono::steady_clock::now();
  Response resp;
  try {
    Matrix graph = cache.get(req.graph);
    const gbtl::IndexType n = graph.nrows();
    if (req.source >= static_cast<std::uint64_t>(n)) {
      throw std::invalid_argument("source " + std::to_string(req.source) +
                                  " out of range (graph has " +
                                  std::to_string(n) + " vertices)");
    }
    const auto src = static_cast<gbtl::IndexType>(req.source);
    std::string result = "nrows=" + std::to_string(n) + "\n";

    if (req.algo == "bfs") {
      Vector frontier(n, DType::kBool);
      frontier.set(src, Scalar(true));
      Vector levels(n, DType::kInt64);
      const auto depth = algo::dsl_bfs(graph, std::move(frontier), levels);
      result += "depth=" + std::to_string(depth) + "\n";
      result += "reached=" + std::to_string(levels.nvals()) + "\n";
    } else if (req.algo == "sssp") {
      Vector path(n, DType::kFP64);
      path.set(src, 0.0);
      algo::dsl_sssp(graph, path);
      result += "reached=" + std::to_string(path.nvals()) + "\n";
      result += "checksum=" + std::to_string(vector_sum(path)) + "\n";
    } else if (req.algo == "pagerank") {
      Vector ranks = algo::dsl_page_rank(
          graph, req.damping, req.threshold,
          static_cast<unsigned>(req.max_iters));
      result += "nvals=" + std::to_string(ranks.nvals()) + "\n";
      result += "sum=" + std::to_string(vector_sum(ranks)) + "\n";
    } else if (req.algo == "tc") {
      auto [lower, upper] = split_triangles(graph);
      (void)upper;
      result +=
          "triangles=" + std::to_string(algo::dsl_triangle_count(lower)) +
          "\n";
    } else if (req.algo == "cc") {
      Vector labels(n, DType::kInt64);
      const auto comps = algo::dsl_connected_components(graph, labels);
      result += "components=" + std::to_string(comps) + "\n";
    } else {
      throw std::invalid_argument("unknown algo '" + req.algo + "'");
    }
    resp.code = Code::kOk;
    resp.result = std::move(result);
  } catch (const governor::Cancelled& e) {
    resp.code = Code::kCancelled;
    resp.error = e.what();
  } catch (const governor::DeadlineExceeded& e) {
    resp.code = Code::kDeadlineExceeded;
    resp.error = e.what();
  } catch (const governor::ResourceExhausted& e) {
    resp.code = Code::kResourceExhausted;
    resp.error = e.what();
  } catch (const std::invalid_argument& e) {
    resp.code = Code::kInvalidRequest;
    resp.error = e.what();
  } catch (const std::exception& e) {
    resp.code = Code::kInternal;
    resp.error = e.what();
  }
  resp.elapsed_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  flightrec::record(flightrec::EventKind::kServe,
                    resp.ok() ? "done" : "error", request_id,
                    flightrec::fnv1a(req.algo.c_str()));
  return resp;
}

}  // namespace pygb::serve
