// serve/server.cpp — accept/admit/execute/drain (server.hpp).
#include "serve/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "pygb/config.hpp"
#include "pygb/governor.hpp"
#include "pygb/obs/export.hpp"
#include "pygb/obs/flightrec.hpp"
#include "pygb/obs/obs.hpp"

#ifndef POLLRDHUP
#define POLLRDHUP 0x2000  // Linux value; glibc hides it without _GNU_SOURCE
#endif

namespace pygb::serve {

/// fd → bound context, for the disconnect monitor. A context is only
/// registered while its worker is executing, and the worker removes it
/// BEFORE the context leaves scope — so the monitor can never cancel
/// through a dangling pointer.
struct Server::Active {
  struct Entry {
    governor::RequestContext* ctx;
    bool hup = false;  ///< count each disconnect once
  };
  std::mutex mu;
  std::unordered_map<int, Entry> by_fd;

  void add(int fd, governor::RequestContext* ctx) {
    std::lock_guard<std::mutex> lock(mu);
    by_fd[fd] = Entry{ctx};
  }
  void remove(int fd) {
    std::lock_guard<std::mutex> lock(mu);
    by_fd.erase(fd);
  }
  void cancel_all() {
    std::lock_guard<std::mutex> lock(mu);
    for (auto& [fd, e] : by_fd) e.ctx->cancel();
  }
};

ServerConfig ServerConfig::from_env() {
  ServerConfig cfg;
  const std::uint64_t mem_limit = governor::mem_limit_bytes();
  cfg.admission.mem_high_water_bytes = config::get(
      "PYGB_SERVE_MEM_HIGH_WATER_BYTES", mem_limit - mem_limit / 10);
  cfg.admission.retry_after_ms = config::get("PYGB_SERVE_RETRY_AFTER_MS");
  cfg.session.graph_cache_cap = config::get("PYGB_SERVE_GRAPH_CACHE");
  cfg.session.max_scale = config::get("PYGB_SERVE_MAX_SCALE");
  cfg.session.allow_files = config::on("PYGB_SERVE_ALLOW_FILES");
  return cfg;
}

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      graphs_(cfg_.session),
      admission_(cfg_.admission, cfg_.threads),
      active_(new Active) {}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  // start() failed or run() completed: both leave the threads joined.
  delete active_;
}

bool Server::start(std::string& error) {
  // A client that vanishes mid-reply must cost the worker an EPIPE, not
  // the process a SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];

  if (cfg_.target.rfind("unix:", 0) == 0) {
    const std::string path = cfg_.target.substr(5);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      error = "unix socket path too long: " + path;
      return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ::unlink(path.c_str());  // stale socket from a killed predecessor
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      error = "bind " + path + ": " + std::strerror(errno);
      return false;
    }
    unix_path_ = path;
    endpoint_ = cfg_.target;
  } else if (cfg_.target.rfind("tcp:", 0) == 0) {
    char* end = nullptr;
    const long port = std::strtol(cfg_.target.c_str() + 4, &end, 10);
    if (end == cfg_.target.c_str() + 4 || *end != '\0' || port < 0 ||
        port > 65535) {
      error = "bad tcp port in '" + cfg_.target + "'";
      return false;
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      error = "bind " + cfg_.target + ": " + std::strerror(errno);
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    endpoint_ = "tcp:" + std::to_string(ntohs(bound.sin_port));
  } else {
    error = "bad target '" + cfg_.target + "' (want unix:<path>|tcp:<port>)";
    return false;
  }

  if (::listen(listen_fd_, 128) != 0) {
    error = std::string("listen: ") + std::strerror(errno);
    return false;
  }

  workers_.reserve(cfg_.threads);
  for (std::uint64_t i = 0; i < cfg_.threads; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
  monitor_ = std::thread([this] { monitor_main(); });
  started_ = true;
  return true;
}

void Server::request_shutdown() noexcept {
  if (wake_wr_ >= 0) {
    const char b = 's';
    [[maybe_unused]] const ssize_t w = ::write(wake_wr_, &b, 1);
  }
}

void Server::reply_and_close(int fd, Code code, const std::string& error,
                             std::uint64_t retry_after_ms) {
  Response resp;
  resp.code = code;
  resp.error = error;
  resp.retry_after_ms = retry_after_ms;
  write_frame(fd, resp.render());
  ::close(fd);
}

int Server::run() {
  if (!started_) return 1;
  pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_rd_, POLLIN, 0}};
  bool drain = false;
  while (!drain) {
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) {
      drain = true;
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;

    std::uint64_t depth;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      depth = pending_.size();
    }
    const Verdict v = admission_.try_admit(depth);
    if (!v.admitted) {
      obs::counter_add(obs::Counter::kServeRejected);
      flightrec::record(flightrec::EventKind::kServe, "reject", depth);
      reply_and_close(conn, Code::kOverloaded, v.reason, v.retry_after_ms);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      pending_.push_back(conn);
    }
    queue_cv_.notify_one();
  }

  // -- graceful drain -------------------------------------------------------
  flightrec::record(flightrec::EventKind::kServe, "drain");
  ::close(listen_fd_);
  listen_fd_ = -1;

  std::deque<int> leftover;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
    leftover.swap(pending_);
  }
  queue_cv_.notify_all();
  admission_.wakeup();
  for (int fd : leftover) {
    obs::counter_add(obs::Counter::kServeRejected);
    reply_and_close(fd, Code::kShuttingDown, "server draining",
                    cfg_.admission.retry_after_ms);
  }

  // Let in-flight requests finish under the drain deadline, then cancel
  // the stragglers — they unwind at their next checkpoint and still get a
  // typed `cancelled` reply before their socket closes.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(cfg_.drain_ms);
  while (in_flight_.load(std::memory_order_relaxed) != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (in_flight_.load(std::memory_order_relaxed) != 0) {
    active_->cancel_all();
  }
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  monitor_stop_.store(true, std::memory_order_relaxed);
  monitor_.join();

  obs::flush_metrics_files();
  return 0;
}

void Server::worker_main() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping_ and nothing left
      fd = pending_.front();
      pending_.pop_front();
      if (stopping_) {
        // Raced the drain sweep; this connection never started executing.
        lock.unlock();
        obs::counter_add(obs::Counter::kServeRejected);
        reply_and_close(fd, Code::kShuttingDown, "server draining",
                        cfg_.admission.retry_after_ms);
        continue;
      }
    }
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    serve_one(fd);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::serve_one(int fd) {
  std::string payload;
  const FrameStatus fs = read_frame(fd, payload, max_request_bytes());
  switch (fs) {
    case FrameStatus::kOk:
      break;
    case FrameStatus::kClosed:
      // Connected and left without a word; nothing to reply to.
      ::close(fd);
      return;
    case FrameStatus::kTooLarge:
      reply_and_close(fd, Code::kInvalidRequest,
                      "declared frame length exceeds " +
                          std::to_string(max_request_bytes()) +
                          " bytes (PYGB_SERVE_MAX_REQUEST_BYTES)",
                      0);
      return;
    case FrameStatus::kTruncated:
    case FrameStatus::kIoError:
      obs::counter_add(obs::Counter::kServeDisconnects);
      flightrec::record(flightrec::EventKind::kServe, "disconnect");
      ::close(fd);
      return;
  }

  Request req;
  std::string perr;
  if (!parse_request(payload, req, perr)) {
    obs::counter_add(obs::Counter::kServeRejected);
    reply_and_close(fd, Code::kInvalidRequest, perr, 0);
    return;
  }

  // The AIMD window: bounded wait for a concurrency slot. After transient
  // trouble the window narrows, so a recompile storm probes with one
  // request instead of stampeding with all of them.
  if (!admission_.acquire_slot(cfg_.admission.retry_after_ms)) {
    obs::counter_add(obs::Counter::kServeRejected);
    flightrec::record(flightrec::EventKind::kServe, "reject");
    reply_and_close(fd, Code::kOverloaded, "no execution slot (window " +
                        std::to_string(admission_.window()) + ")",
                    cfg_.admission.retry_after_ms);
    return;
  }

  const std::uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  obs::counter_add(obs::Counter::kServeAdmitted);
  flightrec::record(flightrec::EventKind::kServe, "admit", id);

  governor::RequestContext ctx;
  const std::string label = "req-" + std::to_string(id);
  ctx.set_label(label.c_str());
  if (req.mem_limit_bytes != 0) ctx.set_mem_limit_bytes(req.mem_limit_bytes);
  const std::uint64_t timeout =
      req.timeout_ms != 0 ? req.timeout_ms : cfg_.request_timeout_ms;
  if (timeout != 0) ctx.set_request_deadline_ms(timeout);

  active_->add(fd, &ctx);
  Response resp;
  {
    obs::Span span("serve.request");
    span.attr("id", id).attr("algo", req.algo).attr("graph", req.graph);
    governor::ThreadBind bind(&ctx);
    resp = execute(req, graphs_, id);
    span.attr("code", code_name(resp.code));
  }
  active_->remove(fd);

  if (resp.code == Code::kCancelled) {
    obs::counter_add(obs::Counter::kServeCancelled);
    flightrec::record(flightrec::EventKind::kServe, "cancel", id);
  }
  bool stopping;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping = stopping_;
  }
  if (stopping) {
    obs::counter_add(obs::Counter::kServeDrained);
  }
  write_frame(fd, resp.render());
  ::close(fd);

  const bool transient = resp.code == Code::kDeadlineExceeded ||
                         resp.code == Code::kResourceExhausted;
  admission_.release_slot(transient);
}

void Server::monitor_main() {
  // Poll every active connection for hangup (~50 ms cadence). A dropped
  // client cancels exactly its own request's context; the worker unwinds
  // at the next governor checkpoint with no partial output.
  while (!monitor_stop_.load(std::memory_order_relaxed)) {
    std::vector<pollfd> fds;
    {
      std::lock_guard<std::mutex> lock(active_->mu);
      fds.reserve(active_->by_fd.size());
      for (const auto& [fd, e] : active_->by_fd) {
        if (!e.hup) fds.push_back({fd, POLLRDHUP, 0});
      }
    }
    if (!fds.empty() && ::poll(fds.data(), fds.size(), 0) > 0) {
      std::lock_guard<std::mutex> lock(active_->mu);
      for (const pollfd& p : fds) {
        if ((p.revents & (POLLRDHUP | POLLHUP | POLLERR | POLLNVAL)) == 0) {
          continue;
        }
        auto it = active_->by_fd.find(p.fd);
        if (it == active_->by_fd.end() || it->second.hup) continue;
        it->second.hup = true;
        it->second.ctx->cancel();
        obs::counter_add(obs::Counter::kServeDisconnects);
        flightrec::record(flightrec::EventKind::kServe, "disconnect");
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace pygb::serve
