// pygb/jit/compile_service.cpp — client/supervisor for the persistent
// compile worker (see compile_service.hpp for the design brief).
#include "pygb/jit/compile_service.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>

#include "pygb/faultinj.hpp"
#include "pygb/jit/subprocess.hpp"
#include "pygb/obs/flightrec.hpp"
#include "pygb/obs/obs.hpp"

namespace pygb::jit {

namespace compiled {

bool write_frame(int fd, const std::string& payload) {
  if (fd < 0 || payload.size() > kMaxFrameBytes) return false;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  unsigned char hdr[4] = {
      static_cast<unsigned char>(len & 0xff),
      static_cast<unsigned char>((len >> 8) & 0xff),
      static_cast<unsigned char>((len >> 16) & 0xff),
      static_cast<unsigned char>((len >> 24) & 0xff),
  };
  std::string buf(reinterpret_cast<char*>(hdr), 4);
  buf += payload;
  std::size_t off = 0;
  while (off < buf.size()) {
    // MSG_NOSIGNAL: a worker SIGKILLed between our frames must surface as
    // EPIPE, not kill THIS process with SIGPIPE.
    const ssize_t n =
        ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

namespace {

/// Read exactly `want` bytes within the deadline. The frame header and
/// payload can each arrive in pieces; the deadline spans the whole frame.
ReadResult read_exact(int fd, char* dst, std::size_t want,
                      std::chrono::steady_clock::time_point deadline,
                      bool bounded) {
  std::size_t got = 0;
  while (got < want) {
    int wait_ms = -1;
    if (bounded) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0) return ReadResult::kTimeout;
      wait_ms = static_cast<int>(left);
    }
    struct pollfd pfd = {fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return ReadResult::kEof;
    }
    if (pr == 0) return ReadResult::kTimeout;
    const ssize_t n = ::recv(fd, dst + got, want - got, 0);
    if (n == 0) return ReadResult::kEof;
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadResult::kEof;
    }
    got += static_cast<std::size_t>(n);
  }
  return ReadResult::kOk;
}

}  // namespace

ReadResult read_frame(int fd, std::string* payload, int deadline_ms) {
  payload->clear();
  if (fd < 0) return ReadResult::kEof;
  const bool bounded = deadline_ms > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(bounded ? deadline_ms : 0);
  char hdr[4];
  const ReadResult hr = read_exact(fd, hdr, 4, deadline, bounded);
  if (hr != ReadResult::kOk) return hr;
  const std::uint32_t len = static_cast<std::uint32_t>(
      static_cast<unsigned char>(hdr[0]) |
      (static_cast<unsigned char>(hdr[1]) << 8) |
      (static_cast<unsigned char>(hdr[2]) << 16) |
      (static_cast<unsigned char>(hdr[3]) << 24));
  if (len > kMaxFrameBytes) return ReadResult::kMalformed;
  payload->resize(len);
  if (len == 0) return ReadResult::kOk;
  const ReadResult br = read_exact(fd, payload->data(), len, deadline, bounded);
  // A header without its payload is a torn frame, not a clean close.
  if (br == ReadResult::kEof) return ReadResult::kMalformed;
  return br;
}

void split_fields(const std::string& payload, char sep,
                  std::size_t max_fields, std::string out[]) {
  std::size_t start = 0;
  for (std::size_t i = 0; i < max_fields; ++i) {
    if (i + 1 == max_fields) {
      out[i] = payload.substr(start);
      return;
    }
    const std::size_t pos = payload.find(sep, start);
    if (pos == std::string::npos) {
      out[i] = payload.substr(start);
      for (std::size_t j = i + 1; j < max_fields; ++j) out[j].clear();
      return;
    }
    out[i] = payload.substr(start, pos - start);
    start = pos + 1;
  }
}

}  // namespace compiled

namespace {

int env_int(const char* name, int fallback, int min_value) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v) return fallback;
  return parsed < min_value ? min_value : static_cast<int>(parsed);
}

// -- AS-safe mirror for the crash handler -----------------------------------

std::atomic<int> g_enabled{0};
std::atomic<long> g_worker_pid{-1};
std::atomic<unsigned long> g_restarts{0};
std::atomic<int> g_breaker_open{0};
std::atomic<unsigned long> g_requests{0};
std::atomic<unsigned long> g_served{0};
std::atomic<unsigned long> g_fallbacks{0};

using Clock = std::chrono::steady_clock;

constexpr int kBackoffBaseMs = 100;
constexpr int kBackoffCapMs = 5000;
/// IPC slack added to the worker's own compile deadline before the CLIENT
/// declares the worker hung (mirrors the registry's waiter grace).
constexpr int kIpcGraceMs = 2000;
/// jitter_unit stream key for service backoff (fnv1a("compiled")-distinct
/// literal so the service never locksteps with per-key breaker jitter).
constexpr std::uint64_t kJitterStream = 0x70794742636f6d70ULL;  // "pyGBcomp"

}  // namespace

int compiled_max_restarts() {
  return env_int("PYGB_COMPILED_MAX_RESTARTS", 3, 0);
}

int compiled_timeout_ms() {
  return env_int("PYGB_COMPILED_TIMEOUT_MS", jit_timeout_ms(), 0);
}

int compiled_breaker_ttl_ms() {
  return env_int("PYGB_COMPILED_BREAKER_TTL_MS", 60000, 1);
}

std::string compiled_worker_path() {
  const char* env = std::getenv("PYGB_COMPILED_BIN");
  if (env != nullptr && *env != '\0') return env;
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n > 0) {
    exe[n] = '\0';
    const std::filesystem::path self(exe);
    std::error_code ec;
    // Installed layout: pygb_compiled next to the running binary.
    auto sibling = self.parent_path() / "pygb_compiled";
    if (std::filesystem::exists(sibling, ec)) return sibling.string();
    // Build-tree layout: tests/ and bench/ binaries live beside tools/.
    auto tools = self.parent_path().parent_path() / "tools" / "pygb_compiled";
    if (std::filesystem::exists(tools, ec)) return tools.string();
  }
  return "pygb_compiled";  // last resort: $PATH
}

struct CompileService::Impl {
  std::mutex mu;
  int enabled_cache = -1;  ///< -1 unknown, else 0/1 (reset() invalidates)

  pid_t pid = -1;
  int fd = -1;
  bool pch = false;
  int generation = 0;  ///< successful spawns this process

  int consecutive_failures = 0;
  Clock::time_point next_spawn_at{};  ///< backoff gate (epoch = no gate)
  bool breaker_open = false;
  Clock::time_point breaker_until{};
  std::uint64_t next_request_id = 1;

  // All callers hold `mu`.

  void cleanup_worker(int grace_ms) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
    if (pid > 0) {
      terminate_supervised(pid, grace_ms);
      pid = -1;
      g_worker_pid.store(-1, std::memory_order_relaxed);
    }
    pch = false;
  }

  /// One service-level failure: back off, and past the restart budget trip
  /// the service breaker. Called with the worker already cleaned up.
  void record_failure(const char* detail, std::string* note) {
    ++consecutive_failures;
    const int budget = compiled_max_restarts();
    if (consecutive_failures > budget) {
      const double unit = faultinj::jitter_unit(
          kJitterStream, static_cast<std::uint64_t>(consecutive_failures));
      const auto ttl = std::chrono::milliseconds(static_cast<long>(
          compiled_breaker_ttl_ms() * (0.75 + 0.5 * unit)));
      breaker_open = true;
      breaker_until = Clock::now() + ttl;
      g_breaker_open.store(1, std::memory_order_relaxed);
      obs::counter_add(obs::Counter::kCompiledBreakerTrips);
      flightrec::record(flightrec::EventKind::kCompiled, "breaker",
                        static_cast<std::uint64_t>(consecutive_failures));
      *note += "; service breaker tripped after " +
               std::to_string(consecutive_failures) + " consecutive failures";
      return;
    }
    int backoff = kBackoffBaseMs;
    for (int i = 1; i < consecutive_failures && backoff < kBackoffCapMs; ++i) {
      backoff *= 2;
    }
    if (backoff > kBackoffCapMs) backoff = kBackoffCapMs;
    const double unit = faultinj::jitter_unit(
        kJitterStream, static_cast<std::uint64_t>(consecutive_failures));
    backoff = static_cast<int>(backoff * (0.75 + 0.5 * unit));
    next_spawn_at = Clock::now() + std::chrono::milliseconds(backoff);
    flightrec::record(flightrec::EventKind::kCompiled, detail,
                      static_cast<std::uint64_t>(consecutive_failures),
                      static_cast<std::uint64_t>(backoff));
    *note += "; restart " + std::to_string(consecutive_failures) + "/" +
             std::to_string(budget) + " backing off " +
             std::to_string(backoff) + "ms";
  }

  /// Spawn + handshake. Returns true with pid/fd/pch set, or false with a
  /// reason in *why (caller records the failure).
  bool spawn_worker(std::string* why) {
    int sv[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      *why = std::string("socketpair: ") + std::strerror(errno);
      return false;
    }
    // The client end must not leak into the worker (or any other child):
    // a leaked duplicate would keep "EOF on worker death" from ever firing.
    ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
    const SpawnOutcome so = spawn_supervised({compiled_worker_path()}, sv[1]);
    ::close(sv[1]);
    if (!so.ok()) {
      ::close(sv[0]);
      *why = std::string("spawn: ") + std::strerror(so.spawn_errno);
      return false;
    }
    // Handshake before any request, bounded like a compile.
    const int hs_ms = std::max(compiled_timeout_ms(), jit_timeout_ms());
    std::string payload;
    const auto rr = compiled::read_frame(sv[0], &payload,
                                         hs_ms > 0 ? hs_ms : 30000);
    if (rr != compiled::ReadResult::kOk) {
      ::close(sv[0]);
      terminate_supervised(so.pid, 200);
      *why = rr == compiled::ReadResult::kTimeout ? "handshake timeout"
             : rr == compiled::ReadResult::kEof   ? "worker died in handshake"
                                                  : "malformed handshake";
      return false;
    }
    std::string f[4];
    compiled::split_fields(payload, compiled::kSep, 4, f);
    if (f[0] != compiled::kMagic) {
      ::close(sv[0]);
      terminate_supervised(so.pid, 200);
      *why = "handshake magic mismatch";
      return false;
    }
    if (std::atoi(f[1].c_str()) != compiled::kProtocolVersion) {
      ::close(sv[0]);
      terminate_supervised(so.pid, 200);
      *why = "protocol version mismatch (worker v" + f[1] + ", client v" +
             std::to_string(compiled::kProtocolVersion) + ")";
      return false;
    }
    pid = so.pid;
    fd = sv[0];
    pch = f[3] == "1";
    ++generation;
    g_worker_pid.store(pid, std::memory_order_relaxed);
    if (generation > 1) {
      g_restarts.fetch_add(1, std::memory_order_relaxed);
      obs::counter_add(obs::Counter::kCompiledRestarts);
      flightrec::record(flightrec::EventKind::kCompiled, "restart",
                        static_cast<std::uint64_t>(pid));
    } else {
      flightrec::record(flightrec::EventKind::kCompiled, "spawn",
                        static_cast<std::uint64_t>(pid));
    }
    return true;
  }
};

CompileService::CompileService() : impl_(new Impl()) {}

CompileService& CompileService::instance() {
  // Leaked (never destroyed): compiles can race process exit, and the
  // worker needs no at-exit kill — PR_SET_PDEATHSIG reaps it with us.
  static CompileService* s = new CompileService();
  return *s;
}

bool CompileService::enabled() {
  std::lock_guard lock(impl_->mu);
  if (impl_->enabled_cache < 0) {
    const char* v = std::getenv("PYGB_COMPILED");
    const bool on = v != nullptr && (std::strcmp(v, "on") == 0 ||
                                     std::strcmp(v, "1") == 0 ||
                                     std::strcmp(v, "true") == 0);
    impl_->enabled_cache = on ? 1 : 0;
    g_enabled.store(impl_->enabled_cache, std::memory_order_relaxed);
  }
  return impl_->enabled_cache == 1;
}

CompileService::Attempt CompileService::compile(
    const std::string& source_path, const std::string& output_path,
    int timeout_ms) {
  Attempt att;
  if (!enabled()) {
    att.note = "service disabled";
    return att;
  }
  g_requests.fetch_add(1, std::memory_order_relaxed);
  obs::counter_add(obs::Counter::kCompiledRequests);
  if (timeout_ms <= 0) timeout_ms = compiled_timeout_ms();

  std::lock_guard lock(impl_->mu);
  const auto now = Clock::now();

  if (impl_->breaker_open) {
    if (now < impl_->breaker_until) {
      g_fallbacks.fetch_add(1, std::memory_order_relaxed);
      att.note = "service breaker open";
      return att;
    }
    // TTL expired: one probe attempt. Leave only one failure of headroom so
    // a failing probe re-trips immediately instead of re-earning the whole
    // restart budget against a still-broken service.
    impl_->breaker_open = false;
    impl_->breaker_until = {};
    impl_->consecutive_failures = compiled_max_restarts();
    impl_->next_spawn_at = {};
    g_breaker_open.store(0, std::memory_order_relaxed);
    flightrec::record(flightrec::EventKind::kCompiled, "probe");
  }

  if (impl_->pid <= 0) {
    if (now < impl_->next_spawn_at) {
      // Respect the backoff gate without burning a restart: degrading one
      // request is cheaper than hammering a flapping worker back into the
      // breaker.
      g_fallbacks.fetch_add(1, std::memory_order_relaxed);
      att.note = "service restart backoff in progress";
      return att;
    }
    std::string why;
    if (!impl_->spawn_worker(&why)) {
      att.note = why;
      impl_->record_failure("died", &att.note);
      g_fallbacks.fetch_add(1, std::memory_order_relaxed);
      return att;
    }
  }

  const std::uint64_t id = impl_->next_request_id++;
  std::string req = "REQ";
  const char sep = compiled::kSep;
  req += sep;
  req += std::to_string(id);
  req += sep;
  req += std::to_string(timeout_ms);
  req += sep;
  req += std::to_string(jit_mem_limit_mb());
  req += sep;
  req += std::to_string(jit_max_retries());
  req += sep;
  req += compiler_command();
  req += sep;
  req += compile_flags();
  req += sep;
  req += source_include_dir();
  req += sep;
  req += source_path;
  req += sep;
  req += output_path;

  if (!compiled::write_frame(impl_->fd, req)) {
    impl_->cleanup_worker(200);
    att.note = "worker died (request write failed)";
    impl_->record_failure("died", &att.note);
    g_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return att;
  }

  std::string payload;
  const auto rr =
      compiled::read_frame(impl_->fd, &payload, timeout_ms + kIpcGraceMs);
  if (rr != compiled::ReadResult::kOk) {
    // Classify before killing: a hang is killed, a death is only reaped.
    const char* what = rr == compiled::ReadResult::kTimeout ? "hang"
                       : rr == compiled::ReadResult::kEof   ? "died"
                                                            : "corrupt";
    impl_->cleanup_worker(rr == compiled::ReadResult::kTimeout ? 0 : 200);
    att.note = std::string("worker ") +
               (rr == compiled::ReadResult::kTimeout
                    ? "hung past the request deadline"
                : rr == compiled::ReadResult::kEof
                    ? "died mid-request"
                    : "sent a malformed frame");
    impl_->record_failure(what, &att.note);
    g_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return att;
  }

  std::string f[8];
  compiled::split_fields(payload, sep, 8, f);
  if (f[0] != "RSP" || std::strtoull(f[1].c_str(), nullptr, 10) != id) {
    impl_->cleanup_worker(200);
    att.note = "protocol corruption (bad response frame)";
    impl_->record_failure("corrupt", &att.note);
    g_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return att;
  }

  // The worker answered: its verdict is authoritative, success or compile
  // diagnostic alike. Service health bookkeeping resets either way.
  impl_->consecutive_failures = 0;
  impl_->next_spawn_at = {};
  att.serviced = true;
  att.result.ok = f[2] == "ok";
  att.result.timed_out = f[2] == "timeout";
  att.result.transient = f[4] == "1";
  att.result.attempts = std::atoi(f[5].c_str());
  att.result.seconds =
      static_cast<double>(std::strtoull(f[6].c_str(), nullptr, 10)) * 1e-9;
  if (!att.result.ok) {
    att.result.log = "compiler exit status " + f[3] + " (" + f[2] +
                     ", via compile service)\n" + f[7];
  }
  g_served.fetch_add(1, std::memory_order_relaxed);
  obs::counter_add(obs::Counter::kCompiledServed);
  return att;
}

CompileService::State CompileService::state() {
  State st;
  st.enabled = enabled();
  std::lock_guard lock(impl_->mu);
  st.running = impl_->pid > 0;
  st.breaker_open =
      impl_->breaker_open && Clock::now() < impl_->breaker_until;
  st.restarts = impl_->generation > 0 ? impl_->generation - 1 : 0;
  st.consecutive_failures = impl_->consecutive_failures;
  st.worker_pid = impl_->pid;
  st.pch = impl_->pch;
  return st;
}

void CompileService::shutdown() {
  std::lock_guard lock(impl_->mu);
  if (impl_->pid > 0) {
    flightrec::record(flightrec::EventKind::kCompiled, "stop",
                      static_cast<std::uint64_t>(impl_->pid));
  }
  impl_->cleanup_worker(500);
}

void CompileService::reset() {
  shutdown();
  std::lock_guard lock(impl_->mu);
  impl_->enabled_cache = -1;
  impl_->generation = 0;
  impl_->consecutive_failures = 0;
  impl_->next_spawn_at = {};
  impl_->breaker_open = false;
  impl_->breaker_until = {};
  g_breaker_open.store(0, std::memory_order_relaxed);
  g_restarts.store(0, std::memory_order_relaxed);
}

namespace compiled_state {

Snapshot snapshot() noexcept {
  Snapshot s;
  s.enabled = g_enabled.load(std::memory_order_relaxed);
  s.worker_pid = g_worker_pid.load(std::memory_order_relaxed);
  s.restarts = g_restarts.load(std::memory_order_relaxed);
  s.breaker_open = g_breaker_open.load(std::memory_order_relaxed);
  s.requests = g_requests.load(std::memory_order_relaxed);
  s.served = g_served.load(std::memory_order_relaxed);
  s.fallbacks = g_fallbacks.load(std::memory_order_relaxed);
  return s;
}

}  // namespace compiled_state

}  // namespace pygb::jit
