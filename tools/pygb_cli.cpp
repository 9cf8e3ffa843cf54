// pygb_cli — command-line driver: load a graph from disk (Matrix Market or
// triplet text) and run any of the library's algorithms through the DSL.
//
//   pygb_cli <algorithm> <graph-file> [options]
//   pygb_cli --cache-info | --cache-clear | --health
//
//   algorithms:  bfs | sssp | pagerank | tc | cc | bc | info
//   options:     --source N        start vertex for bfs/sssp   (default 0)
//                --damping X       PageRank damping            (default 0.85)
//                --threshold X     PageRank convergence        (default 1e-5)
//                --tier dsl|whole|native   implementation tier (default dsl)
//                --top K           print the K best-ranked rows (default 10)
//                --trace FILE      write a Chrome trace_event JSON of the
//                                  dispatch pipeline (open in Perfetto)
//                --stats           print the end-of-run metrics summary
//                                  (kernel-time histograms, cache hit
//                                  ratio, compile seconds)
//                --stats-json      machine-readable twin of --stats: the
//                                  schema-versioned pygb.metrics JSON on
//                                  stdout (same key names as the exporter;
//                                  the human report moves to stderr)
//                --metrics-json F  write the pygb.metrics JSON snapshot to
//                                  F after the run ("-" = stdout)
//                --metrics-prom F  write the Prometheus text exposition to
//                                  F after the run ("-" = stdout)
//                --crash-dir DIR   install the crash handler; a fatal
//                                  signal writes an attribution report
//                                  into DIR (same as PYGB_CRASH_DIR)
//                --faults SPEC     arm deterministic fault injection for
//                                  chaos runs, e.g. "compile:hang:p=1,
//                                  seed=42" (same grammar as PYGB_FAULTS;
//                                  see docs/ROBUSTNESS.md)
//                --mem-limit N     governor memory budget in bytes; a
//                                  kernel charge that would cross it makes
//                                  the run fail with ResourceExhausted
//                                  instead of dying to the OOM killer
//                --op-timeout MS   governor per-operation deadline; an op
//                                  outliving it raises DeadlineExceeded at
//                                  its next checkpoint
//
//   cache subcommands (no graph file): --cache-info prints the module
//   cache directory, size, environment stamp, the PCH directory compiles
//   use (or "none") with the size of its thin.hpp and glue.hpp PCHs, and
//   the module ABI versions (PoolApi and driver table); --cache-clear
//   empties it. See docs/CACHE.md.
//
//   --health (no graph file): end-to-end readiness probe — generate a
//   1-element kernel, compile it, dlopen it, and run it. Emits a
//   pygb.health JSON document on stdout and exits nonzero if any stage
//   fails, so an orchestrator's readiness check exercises the exact
//   pipeline user requests will take. See docs/ROBUSTNESS.md.
//
// PYGB_TRACE=<file> / PYGB_METRICS=1 activate the same observability
// surfaces from the environment — see docs/OBSERVABILITY.md.
//
// Exercises the full public stack: direct file loading (§VIII), the DSL,
// whole-algorithm dispatch, and the observability layer.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "algorithms/betweenness.hpp"
#include "algorithms/bfs.hpp"
#include "algorithms/connected_components.hpp"
#include "algorithms/dsl_algorithms.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/triangle_count.hpp"
#include "gbtl/core.hpp"
#include "gbtl/detail/pool_api.hpp"
#include "pygb/faultinj.hpp"
#include "pygb/governor.hpp"
#include "pygb/jit/cache.hpp"
#include "pygb/jit/codegen.hpp"
#include "pygb/jit/compiler.hpp"
#include "pygb/jit/loader.hpp"
#include "pygb/jit/module_key.hpp"
#include "pygb/obs/crash.hpp"
#include "pygb/obs/export.hpp"
#include "pygb/obs/obs.hpp"
#include "pygb/pygb.hpp"

namespace {

using namespace pygb;  // NOLINT

struct Options {
  std::string algorithm;
  std::string path;
  gbtl::IndexType source = 0;
  double damping = 0.85;
  double threshold = 1e-5;
  std::string tier = "dsl";
  std::size_t top = 10;
  std::string trace_path;
  bool stats = false;
  bool stats_json = false;
  std::string metrics_json_path;
  std::string metrics_prom_path;
  std::string crash_dir;
  std::string faults;
  std::uint64_t mem_limit = 0;   // 0 = unlimited
  std::uint64_t op_timeout = 0;  // 0 = no deadline
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " <bfs|sssp|pagerank|tc|cc|bc|info> <graph-file> [options]\n"
         "       " << argv0
      << " --cache-info | --cache-clear | --health\n"
         "  --source N   --damping X   --threshold X\n"
         "  --tier dsl|whole|native    --top K\n"
         "  --trace FILE (Chrome trace JSON)   --stats (metrics summary)\n"
         "  --stats-json (metrics snapshot as pygb.metrics JSON on stdout)\n"
         "  --metrics-json FILE  --metrics-prom FILE ('-' = stdout)\n"
         "  --crash-dir DIR (crash attribution reports; PYGB_CRASH_DIR)\n"
         "  --faults SPEC (deterministic fault injection; PYGB_FAULTS "
         "grammar)\n"
         "  --mem-limit BYTES (governor budget; PYGB_MEM_LIMIT_BYTES)\n"
         "  --op-timeout MS (per-op deadline; PYGB_OP_TIMEOUT_MS)\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  if (argc < 3) usage(argv[0]);
  Options o;
  o.algorithm = argv[1];
  o.path = argv[2];
  for (int k = 3; k < argc; ++k) {
    const std::string flag = argv[k];
    auto value = [&]() -> std::string {
      if (k + 1 >= argc) usage(argv[0]);
      return argv[++k];
    };
    if (flag == "--source") {
      o.source = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--damping") {
      o.damping = std::stod(value());
    } else if (flag == "--threshold") {
      o.threshold = std::stod(value());
    } else if (flag == "--tier") {
      o.tier = value();
    } else if (flag == "--top") {
      o.top = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      o.trace_path = value();
    } else if (flag == "--stats") {
      o.stats = true;
    } else if (flag == "--stats-json") {
      o.stats_json = true;
    } else if (flag == "--metrics-json") {
      o.metrics_json_path = value();
    } else if (flag == "--metrics-prom") {
      o.metrics_prom_path = value();
    } else if (flag == "--crash-dir") {
      o.crash_dir = value();
    } else if (flag == "--faults") {
      o.faults = value();
    } else if (flag == "--mem-limit") {
      o.mem_limit = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--op-timeout") {
      o.op_timeout = std::strtoull(value().c_str(), nullptr, 10);
    } else {
      std::cerr << "unknown option: " << flag << "\n";
      usage(argv[0]);
    }
  }
  if (o.tier != "dsl" && o.tier != "whole" && o.tier != "native") {
    usage(argv[0]);
  }
  return o;
}

void print_top_vector(const Vector& v, std::size_t top, const char* what) {
  std::vector<std::pair<double, gbtl::IndexType>> entries;
  for (gbtl::IndexType i = 0; i < v.size(); ++i) {
    if (v.has_element(i)) entries.push_back({v.get(i), i});
  }
  std::sort(entries.rbegin(), entries.rend());
  std::cout << "top " << std::min(top, entries.size()) << " by " << what
            << ":\n";
  for (std::size_t k = 0; k < top && k < entries.size(); ++k) {
    std::cout << "  vertex " << entries[k].second << "  " << what << " "
              << entries[k].first << "\n";
  }
}

int run_bfs(const Options& o, const Matrix& graph) {
  Vector levels(graph.nrows(), DType::kInt64);
  gbtl::IndexType depth = 0;
  if (o.tier == "native") {
    gbtl::Vector<std::int64_t> nat(graph.nrows());
    depth = algo::bfs_from(graph.typed<double>(), o.source, nat);
    std::cout << "depth " << depth << ", reached " << nat.nvals() << " / "
              << graph.nrows() << " vertices\n";
    return 0;
  }
  Vector frontier(graph.nrows(), DType::kBool);
  frontier.set(o.source, Scalar(true));
  depth = o.tier == "whole" ? algo::whole_bfs(graph, frontier, levels)
                            : algo::dsl_bfs(graph, frontier, levels);
  std::cout << "depth " << depth << ", reached " << levels.nvals() << " / "
            << graph.nrows() << " vertices\n";
  return 0;
}

int run_sssp(const Options& o, const Matrix& graph) {
  Vector path(graph.nrows(), DType::kFP64);
  path.set(o.source, 0.0);
  if (o.tier == "native") {
    gbtl::Vector<double> nat(graph.nrows());
    algo::sssp_from(graph.typed<double>(), o.source, nat);
    std::cout << "reached " << nat.nvals() << " vertices\n";
    return 0;
  }
  if (o.tier == "whole") {
    algo::whole_sssp(graph, path);
  } else {
    algo::dsl_sssp(graph, path);
  }
  std::cout << "reached " << path.nvals() << " vertices\n";
  double max_dist = 0;
  for (gbtl::IndexType v = 0; v < path.size(); ++v) {
    if (path.has_element(v)) max_dist = std::max(max_dist, path.get(v));
  }
  std::cout << "eccentricity of source " << o.source << ": " << max_dist
            << "\n";
  return 0;
}

int run_pagerank(const Options& o, const Matrix& graph) {
  Vector rank;
  if (o.tier == "native") {
    gbtl::Vector<double> nat(graph.nrows());
    const auto iters =
        algo::page_rank(graph.typed<double>(), nat, o.damping, o.threshold);
    std::cout << "converged in " << iters << " iterations\n";
    rank = Vector::adopt(std::move(nat));
  } else if (o.tier == "whole") {
    rank = Vector(graph.nrows(), DType::kFP64);
    const auto iters =
        algo::whole_page_rank(graph, rank, o.damping, o.threshold);
    std::cout << "converged in " << iters << " iterations\n";
  } else {
    rank = algo::dsl_page_rank(graph, o.damping, o.threshold);
  }
  std::cout << "rank mass: " << reduce(rank).to_double()
            << " (< 1 indicates dangling vertices)\n";
  print_top_vector(rank, o.top, "rank");
  return 0;
}

int run_tc(const Options& o, const Matrix& graph) {
  auto [lower, upper] = split_triangles(graph);
  std::int64_t triangles = 0;
  if (o.tier == "native") {
    triangles = algo::triangle_count<std::int64_t>(lower.typed<double>());
  } else if (o.tier == "whole") {
    triangles = algo::whole_triangle_count(lower);
  } else {
    triangles = algo::dsl_triangle_count(lower);
  }
  std::cout << "triangles: " << triangles << "\n";
  return 0;
}

int run_cc(const Options& o, const Matrix& graph) {
  if (o.tier == "native") {
    gbtl::Vector<std::int64_t> labels(graph.nrows());
    const auto rounds =
        algo::connected_components(graph.typed<double>(), labels);
    std::cout << "components: " << algo::count_components(labels) << " ("
              << rounds << " rounds)\n";
    return 0;
  }
  Vector labels(graph.nrows(), DType::kInt64);
  const auto rounds = o.tier == "whole"
                          ? algo::whole_connected_components(graph, labels)
                          : algo::dsl_connected_components(graph, labels);
  std::cout << "components: "
            << algo::count_components(labels.typed<std::int64_t>()) << " ("
            << rounds << " rounds)\n";
  return 0;
}

int run_bc(const Options& o, const Matrix& graph) {
  auto bc = algo::betweenness_centrality(graph.typed<double>());
  print_top_vector(Vector::adopt(std::move(bc)), o.top, "betweenness");
  return 0;
}

int run_cache_command(const std::string& cmd) {
  auto& reg = pygb::jit::Registry::instance();
  const std::string dir = reg.cache_dir();
  if (cmd == "--cache-clear") {
    reg.clear_disk_cache();
    std::cout << "cleared module cache at " << dir << "\n";
    return 0;
  }
  const auto info = pygb::jit::cache_info(dir);
  std::cout << "cache dir:   " << dir << "\n"
            << "modules:     " << info.modules << "\n"
            << "total bytes: " << info.total_bytes << "\n"
            << "quarantined: " << info.quarantined << "\n"
            << "failed logs: " << info.logs << "\n"
            << "stamp:       " << pygb::jit::cache_stamp() << "\n";
  const std::string pch = pygb::jit::active_pch_dir();
  std::cout << "pch dir:     " << (pch.empty() ? "none" : pch) << "\n";
  for (const char* file : pygb::jit::kPchFiles) {
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(pch + "/" + file, ec);
    std::cout << "pch:         " << file << " "
              << (pch.empty() || ec ? std::string("none")
                                    : std::to_string(bytes) + " bytes")
              << "\n";
  }
  std::cout << "module abi:  pool v" << gbtl::detail::kPoolAbiVersion
            << ", driver table v" << gbtl::kDriverTableVersion << "\n";
  if (const auto cap = pygb::jit::cache_max_bytes(); cap != 0) {
    std::cout << "max bytes:   " << cap << " (PYGB_CACHE_MAX_BYTES)\n";
  } else {
    std::cout << "max bytes:   unlimited\n";
  }
  return 0;
}

// --health: prove the whole JIT pipeline works RIGHT NOW — codegen,
// compile, dlopen, and a real kernel invocation — rather than inferring
// readiness from "the process is up". Each stage is timed and reported
// individually so a failing probe names the broken layer. Output is a
// schema-versioned JSON document; exit status 0 only when every stage
// passed.
int run_health() {
  namespace fs = std::filesystem;
  using Clock = std::chrono::steady_clock;

  struct StageReport {
    const char* stage;
    bool ok = false;
    double ms = 0.0;
    std::string error;
  };
  std::vector<StageReport> stages;
  const auto run_stage = [&](const char* name, auto&& body) {
    StageReport rep;
    rep.stage = name;
    const auto t0 = Clock::now();
    try {
      rep.ok = body(&rep.error);
    } catch (const std::exception& e) {
      rep.error = e.what();
    }
    rep.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                 .count();
    stages.push_back(std::move(rep));
    return stages.back().ok;
  };

  // The probe kernel: fp64 + fp64 elementwise add over 1-element vectors.
  // Small enough to compile in well under a second, real enough to cross
  // every layer a production dispatch crosses.
  jit::OpRequest req;
  req.func = jit::func::kEWiseAddVV;
  req.c = DType::kFP64;
  req.a = DType::kFP64;
  req.b = DType::kFP64;
  req.binary_op = BinaryOp(BinaryOpName::kPlus);
  const std::string stamp = jit::cache_stamp();

  // Private scratch dir — the probe must not pollute (or be satisfied by)
  // the shared module cache: a cache hit would skip the compile stage and
  // the probe would vouch for a compiler that no longer works.
  const fs::path dir = fs::temp_directory_path() /
                       ("pygb_health_" + std::to_string(::getpid()));
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string src_path = (dir / "health_probe.cpp").string();
  const std::string so_path = (dir / "health_probe.so").string();

  bool ok = run_stage("codegen", [&](std::string* err) {
    std::string source;
    source = jit::generate_source(req, stamp);
    std::ofstream out(src_path, std::ios::binary | std::ios::trunc);
    out << source;
    out.close();
    if (!out) {
      *err = "failed to write " + src_path;
      return false;
    }
    return true;
  });

  ok = ok && run_stage("compile", [&](std::string* err) {
    const auto res = jit::compile_module(src_path, so_path);
    if (!res.ok) *err = res.log.empty() ? "compile failed" : res.log;
    return res.ok;
  });

  jit::KernelFn fn = nullptr;
  ok = ok && run_stage("dlopen", [&](std::string* err) {
    fn = jit::load_kernel(so_path, err, stamp);
    return fn != nullptr;
  });

  ok = ok && run_stage("run", [&](std::string* err) {
    Vector va(1, DType::kFP64);
    Vector vb(1, DType::kFP64);
    Vector vc(1, DType::kFP64);
    va.set(0, 1.0);
    vb.set(0, 1.0);
    jit::KernelArgs args;
    args.c = &vc.typed<double>();
    args.a = &va.typed<double>();
    args.b = &vb.typed<double>();
    gbtl::detail::BackendScope bscope(req.backend);
    fn(&args);
    if (!vc.has_element(0) || vc.get(0) != 2.0) {
      *err = "kernel produced wrong result (expected c[0] == 2.0)";
      return false;
    }
    return true;
  });

  fs::remove_all(dir, ec);

  std::string out = "{\"schema\":\"pygb.health\",\"schema_version\":2,";
  out += "\"ok\":";
  out += ok ? "true" : "false";
  out += ",\"compiler\":";
  obs::detail::append_json_string(out, jit::compiler_command());
  out += ",\"stages\":[";
  bool first = true;
  for (const auto& s : stages) {
    if (!first) out += ",";
    first = false;
    out += "{\"stage\":";
    obs::detail::append_json_string(out, s.stage);
    out += ",\"ok\":";
    out += s.ok ? "true" : "false";
    out += ",\"ms\":" + std::to_string(s.ms);
    if (!s.ok) {
      out += ",\"error\":";
      obs::detail::append_json_string(out, s.error);
    }
    out += "}";
  }
  out += "]}";
  std::cout << out << "\n";
  return ok ? 0 : 1;
}

int run_info(const Matrix& graph) {
  std::cout << "shape: " << graph.nrows() << " x " << graph.ncols()
            << "\nstored edges: " << graph.nvals()
            << "\ndtype: " << display_name(graph.dtype()) << "\n";
  Vector degrees(graph.nrows(), DType::kFP64);
  degrees[None] = reduce_rows(graph, PlusMonoid());
  std::cout << "vertices with out-edges: " << degrees.nvals() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--cache-info") == 0 ||
                    std::strcmp(argv[1], "--cache-clear") == 0)) {
    return run_cache_command(argv[1]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--health") == 0) {
    return run_health();
  }
  const Options o = parse(argc, argv);
  if (!o.trace_path.empty()) pygb::obs::set_tracing_enabled(true);
  if (o.stats || o.stats_json || !o.metrics_json_path.empty() ||
      !o.metrics_prom_path.empty()) {
    pygb::obs::set_metrics_enabled(true);
  }
  if (!o.crash_dir.empty()) pygb::crash::install(o.crash_dir.c_str());
  // Machine output on stdout (--stats-json, or a "-" metrics destination)
  // must stay parseable: route the human report to stderr for those runs.
  const bool machine_stdout = o.stats_json || o.metrics_json_path == "-" ||
                              o.metrics_prom_path == "-";
  std::streambuf* const human_buf = std::cout.rdbuf();
  if (machine_stdout) std::cout.rdbuf(std::cerr.rdbuf());
  try {
    if (!o.faults.empty()) pygb::faultinj::configure(o.faults);
    if (o.mem_limit != 0) pygb::governor::set_mem_limit_bytes(o.mem_limit);
    if (o.op_timeout != 0) pygb::governor::set_op_timeout_ms(o.op_timeout);
    Matrix graph = Matrix::from_file(o.path);
    std::cout << "loaded " << o.path << ": " << graph.nrows()
              << " vertices, " << graph.nvals() << " edges\n";

    int rc = 1;
    if (o.algorithm == "bfs") {
      rc = run_bfs(o, graph);
    } else if (o.algorithm == "sssp") {
      rc = run_sssp(o, graph);
    } else if (o.algorithm == "pagerank") {
      rc = run_pagerank(o, graph);
    } else if (o.algorithm == "tc") {
      rc = run_tc(o, graph);
    } else if (o.algorithm == "cc") {
      rc = run_cc(o, graph);
    } else if (o.algorithm == "bc") {
      rc = run_bc(o, graph);
    } else if (o.algorithm == "info") {
      rc = run_info(graph);
    } else {
      usage(argv[0]);
    }

    if (o.stats) {
      std::cout << pygb::obs::metrics_summary();
    } else if (!o.stats_json) {
      const auto st = pygb::jit::Registry::instance().stats();
      std::cout << "[dispatch: " << st.lookups << " ops, " << st.static_hits
                << " static, " << st.memory_hits << " memory, "
                << st.disk_hits << " disk, " << st.compiles << " compiled, "
                << st.interp_dispatches << " interpreted]\n";
    }
    std::cout.rdbuf(human_buf);  // end of the human report
    if (o.stats_json) {
      std::cout << pygb::obs::metrics_json() << "\n";
    }
    const auto emit_metrics = [](const std::string& dest,
                                 const std::string& content) {
      if (dest == "-") {
        std::cout << content;
        return;
      }
      std::string error;
      if (!pygb::obs::write_file_atomic(dest, content, &error)) {
        std::cerr << "error writing metrics to " << dest << ": " << error
                  << "\n";
      }
    };
    if (!o.metrics_json_path.empty()) {
      emit_metrics(o.metrics_json_path, pygb::obs::metrics_json() + "\n");
    }
    if (!o.metrics_prom_path.empty()) {
      emit_metrics(o.metrics_prom_path, pygb::obs::metrics_prometheus());
    }
    if (!o.trace_path.empty()) {
      std::string error;
      if (pygb::obs::write_chrome_trace(o.trace_path, &error)) {
        (machine_stdout ? std::cerr : std::cout)
            << "trace written to " << o.trace_path << " ("
            << pygb::obs::trace_event_count() << " events)\n";
      } else {
        std::cerr << "error writing trace: " << error << "\n";
      }
    }
    return rc;
  } catch (const std::exception& e) {
    std::cout.rdbuf(human_buf);
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
