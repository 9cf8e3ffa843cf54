// serve/session.hpp — request execution for pygb_serve: graph resolution
// (with a bounded shared cache) and algorithm dispatch with typed-error
// mapping (docs/SERVING.md).
//
// Graph specs a request may name:
//
//   rmat:<scale>[:<edge_factor>]  — gen::rmat power-law graph (2^scale
//                                   vertices; scale capped by
//                                   PYGB_SERVE_MAX_SCALE, default 20)
//   er:<n>                        — gen::paper_graph Erdős–Rényi, n vertices
//   ring:<n> | path:<n> | star:<n>— deterministic classic families
//   file:<path>                   — Matrix Market file; DISABLED unless
//                                   PYGB_SERVE_ALLOW_FILES=1 (a network
//                                   server must not read arbitrary paths a
//                                   client names by default)
//
// Graphs are SHARED infrastructure, not tenant state: they are built and
// cached under the DEFAULT governor context (an explicit ThreadBind to
// nullptr around construction), so a graph build charges the process-wide
// gauge — where admission control can see it — and is never billed to, or
// aborted by, the single tenant who happened to ask first. The cache is a
// small LRU (PYGB_SERVE_GRAPH_CACHE entries); each entry holds a
// governor::MemCharge sized to the adjacency footprint, so eviction
// returns the memory to the gauge.
//
// execute() runs INSIDE the caller's bound RequestContext: every
// checkpoint, deadline, budget charge, and cancellation inside the
// algorithm routes to that tenant. Governor aborts and parse failures come
// back as typed Response codes — never exceptions — so the server loop
// upstairs cannot be killed by anything a request does.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>

#include "pygb/container.hpp"
#include "pygb/governor.hpp"
#include "serve/protocol.hpp"

namespace pygb::serve {

/// Knobs, resolved once at server start (ServerConfig::from_env).
struct SessionConfig {
  std::uint64_t graph_cache_cap = 8;  ///< PYGB_SERVE_GRAPH_CACHE (min 1)
  std::uint64_t max_scale = 20;       ///< PYGB_SERVE_MAX_SCALE (rmat cap)
  bool allow_files = false;           ///< PYGB_SERVE_ALLOW_FILES
};

/// Bounded LRU of resolved graphs, shared by all workers. Thread-safe.
class GraphCache {
 public:
  explicit GraphCache(const SessionConfig& cfg) : cfg_(cfg) {}

  /// Resolve `spec` to an adjacency matrix (cache hit or build+insert).
  /// Throws std::invalid_argument on malformed/disallowed specs and
  /// governor::ResourceExhausted when a build would cross the process
  /// budget. Returned Matrix shares storage with the cache entry (pygb
  /// containers are shared_ptr-backed), so eviction never invalidates a
  /// graph a request is still using.
  Matrix get(const std::string& spec);

  std::size_t size() const;

 private:
  struct Entry {
    std::string spec;
    Matrix graph;
    governor::MemCharge charge;
  };

  SessionConfig cfg_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
};

/// Run one parsed request to a response. Never throws: every failure mode
/// maps to a typed Code (governor aborts → deadline_exceeded /
/// resource_exhausted / cancelled; bad specs → invalid_request; anything
/// else → internal). `request_id` tags flight-recorder events.
Response execute(const Request& req, GraphCache& cache,
                 std::uint64_t request_id);

}  // namespace pygb::serve
