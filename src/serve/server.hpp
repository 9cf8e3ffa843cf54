// serve/server.hpp — the pygb_serve server loop: accept, admit, execute,
// degrade, drain (docs/SERVING.md).
//
// The engineering goal is DEGRADE, NEVER DIE. Every way a request can go
// wrong — malformed frames, oversized declarations, unknown algorithms,
// budget exhaustion, deadlines, client disconnects, compile trouble under
// load — ends in a typed reply (or a closed socket the client abandoned),
// never in a dead server or a torn result:
//
//   * ADMISSION (serve/admission.hpp) runs in the accept loop: past the
//     queue cap or the memory high-water mark the connection gets an
//     `overloaded` reply with a retry hint, WITHOUT its request being read.
//   * ISOLATION: each admitted request executes under its own
//     governor::RequestContext — label, optional memory budget, and a
//     whole-request deadline (req.timeout_ms or
//     ServerConfig::request_timeout_ms). The gbtl pool propagates the binding
//     to its workers (PoolApi v4), so one tenant's OOM/deadline/cancel
//     cannot abort another tenant's op — and the governor's no-partial-
//     output guarantee holds per request.
//   * CANCELLATION: a monitor thread polls active connections for hangup;
//     a dropped client gets exactly its own context cancelled, and the
//     worker unwinds at the next governor checkpoint.
//   * DRAIN: request_shutdown() (async-signal-safe; wired to SIGTERM by
//     tools/pygb_serve.cpp) stops accepting, answers queued connections
//     with `shutting_down`, lets in-flight requests finish under
//     ServerConfig::drain_ms, cancels stragglers past the cap, flushes the
//     metrics files, and run() returns 0.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/admission.hpp"
#include "serve/session.hpp"

namespace pygb::serve {

struct ServerConfig {
  /// "unix:<path>" or "tcp:<port>" ("tcp:0" binds an ephemeral port;
  /// Server::endpoint() reports the real one).
  std::string target = "unix:/tmp/pygb_serve.sock";
  std::uint64_t threads = 4;                 ///< --threads
  std::uint64_t request_timeout_ms = 30000;  ///< --request-timeout
  std::uint64_t drain_ms = 5000;             ///< --drain-ms
  AdmissionConfig admission;
  SessionConfig session;

  /// The defaults, with the admission and session knobs resolved from the
  /// environment.
  static ServerConfig from_env();
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn workers and the disconnect monitor. False (and
  /// `error`) on any setup failure; safe to destroy afterwards.
  bool start(std::string& error);

  /// The accept loop. Blocks until request_shutdown(), then drains and
  /// returns the process exit code (0 = clean drain).
  int run();

  /// ASYNC-SIGNAL-SAFE shutdown trigger (one write(2) to a self-pipe).
  void request_shutdown() noexcept;

  /// The bound endpoint ("tcp:<real port>" after "tcp:0").
  std::string endpoint() const { return endpoint_; }
  const ServerConfig& config() const noexcept { return cfg_; }

 private:
  struct Active;  // fd → context registration (server.cpp)

  void worker_main();
  void monitor_main();
  void serve_one(int fd);
  void reply_and_close(int fd, Code code, const std::string& error,
                       std::uint64_t retry_after_ms);

  ServerConfig cfg_;
  GraphCache graphs_;
  AdmissionController admission_;
  std::string endpoint_;
  std::string unix_path_;  ///< unlinked on shutdown when nonempty

  int listen_fd_ = -1;
  int wake_rd_ = -1;  ///< self-pipe: request_shutdown() writes, run() polls
  int wake_wr_ = -1;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  ///< accepted fds awaiting a worker
  bool stopping_ = false;    ///< guarded by queue_mu_

  std::atomic<std::uint64_t> next_request_id_{0};
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<bool> monitor_stop_{false};

  Active* active_ = nullptr;
  std::vector<std::thread> workers_;
  std::thread monitor_;
  bool started_ = false;
};

}  // namespace pygb::serve
