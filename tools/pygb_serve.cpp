// tools/pygb_serve.cpp — the pygb multi-tenant graph-analytics daemon
// (docs/SERVING.md).
//
//   pygb_serve --socket /tmp/pygb.sock
//   pygb_serve --port 7432 --threads 8 --mem-limit 268435456
//
// Accepts length-prefixed DSL-program requests (serve/protocol.hpp), runs
// them with per-request governor isolation, sheds load with typed
// `overloaded` replies, and drains gracefully: SIGTERM/SIGINT stop the
// accept loop, in-flight requests finish under --drain-ms, metrics flush,
// and the process exits 0.
//
// Flags mirror pygb_cli (a flag shadows the env knob named beside it):
//   --socket PATH     listen on a Unix socket (default /tmp/pygb_serve.sock)
//   --port N          listen on loopback TCP instead (0 = ephemeral)
//   --threads N       worker threads (default 4)
//   --max-queue N     pending-connection cap (default 64; 0 = none)
//   --request-timeout MS  per-request deadline (default 30000)
//   --drain-ms MS     drain budget at shutdown (default 5000)
//   --mem-limit BYTES process governor budget      (PYGB_MEM_LIMIT_BYTES)
//   --op-timeout MS   per-op deadline default      (PYGB_OP_TIMEOUT_MS)
//   --metrics-json F  flush pygb.metrics JSON here (PYGB_METRICS_JSON)
//   --metrics-prom F  flush Prometheus text here   (PYGB_METRICS_PROM)
//   --faults SPEC     deterministic fault injection (PYGB_FAULTS)
#include <signal.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pygb/faultinj.hpp"
#include "pygb/governor.hpp"
#include "pygb/obs/export.hpp"
#include "pygb/obs/obs.hpp"
#include "serve/server.hpp"

namespace {

pygb::serve::Server* g_server = nullptr;

extern "C" void handle_shutdown(int) {
  // AS-safe: one write(2) to the server's self-pipe. The accept loop does
  // the actual draining on its own thread.
  if (g_server != nullptr) g_server->request_shutdown();
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--socket PATH | --port N] [--threads N]\n"
               "  [--max-queue N] [--request-timeout MS] [--drain-ms MS]\n"
               "  [--mem-limit BYTES] [--op-timeout MS]\n"
               "  [--metrics-json FILE] [--metrics-prom FILE]\n"
               "  [--faults SPEC]\n",
               argv0);
  std::exit(2);
}

std::uint64_t arg_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "bad number: %s\n", s);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  pygb::serve::ServerConfig cfg = pygb::serve::ServerConfig::from_env();
  std::string metrics_json, metrics_prom, faults;
  bool port_set = false;

  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    auto value = [&]() -> const char* {
      if (k + 1 >= argc) usage(argv[0]);
      return argv[++k];
    };
    if (flag == "--socket") {
      cfg.target = std::string("unix:") + value();
    } else if (flag == "--port") {
      cfg.target = std::string("tcp:") + value();
      port_set = true;
    } else if (flag == "--threads") {
      cfg.threads = arg_u64(value());
    } else if (flag == "--max-queue") {
      cfg.admission.max_queue = arg_u64(value());
    } else if (flag == "--request-timeout") {
      cfg.request_timeout_ms = arg_u64(value());
    } else if (flag == "--drain-ms") {
      cfg.drain_ms = arg_u64(value());
    } else if (flag == "--mem-limit") {
      pygb::governor::set_mem_limit_bytes(arg_u64(value()));
      // The high-water default derives from the limit; recompute it.
      cfg.admission.mem_high_water_bytes =
          pygb::serve::ServerConfig::from_env().admission.mem_high_water_bytes;
    } else if (flag == "--op-timeout") {
      pygb::governor::set_op_timeout_ms(arg_u64(value()));
    } else if (flag == "--metrics-json") {
      metrics_json = value();
    } else if (flag == "--metrics-prom") {
      metrics_prom = value();
    } else if (flag == "--faults") {
      faults = value();
    } else {
      std::fprintf(stderr, "unknown option: %s\n", flag.c_str());
      usage(argv[0]);
    }
  }
  (void)port_set;

  if (!faults.empty()) pygb::faultinj::configure(faults);
  if (!metrics_json.empty() || !metrics_prom.empty()) {
    pygb::obs::set_metrics_enabled(true);
    pygb::obs::set_export_paths(metrics_json, metrics_prom);
  }

  pygb::serve::Server server(cfg);
  std::string error;
  if (!server.start(error)) {
    std::fprintf(stderr, "pygb_serve: %s\n", error.c_str());
    return 1;
  }

  g_server = &server;
  struct sigaction sa {};
  sa.sa_handler = handle_shutdown;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  // Line-buffered, parseable announcement — tests and the bench harness
  // wait for this to learn the (possibly ephemeral) endpoint.
  std::printf("pygb_serve listening on %s (threads=%llu max_queue=%llu)\n",
              server.endpoint().c_str(),
              static_cast<unsigned long long>(cfg.threads),
              static_cast<unsigned long long>(cfg.admission.max_queue));
  std::fflush(stdout);

  const int rc = server.run();
  std::printf("pygb_serve drained, exiting %d\n", rc);
  return rc;
}
