// pygb/obs/crash.cpp — the async-signal-safe crash handler (crash.hpp).
#include "pygb/obs/crash.hpp"

#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstring>

#include "pygb/governor.hpp"
#include "pygb/jit/loader.hpp"
#include "pygb/obs/flightrec.hpp"
#include "pygb/obs/obs.hpp"

namespace pygb::crash {

namespace {

constexpr int kSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGABRT};
constexpr std::size_t kDirBytes = 512;
constexpr int kBacktraceDepth = 64;

char g_dir[kDirBytes] = {};
std::atomic<bool> g_installed{false};
std::atomic<std::uint64_t> g_reports{0};

/// One-shot winner latch: 0 = free, else the report is being written.
std::atomic<int> g_crash_latch{0};

/// Nested-fault guard (POD, constant-init: safe to touch in a handler).
/// A fault raised while THIS thread is already inside the handler must die
/// immediately — re-entering the attribution path could loop forever.
thread_local bool g_in_handler = false;

/// Alternate signal stack so stack-overflow SIGSEGVs still get a report.
char g_altstack[64 * 1024];

// -- AS-safe formatting helpers (write(2) only; no stdio, no malloc) -------

void wr(int fd, const char* s) {
  std::size_t n = 0;
  while (s[n] != '\0') ++n;
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, s + off, n - off);
    if (w <= 0) return;
    off += static_cast<std::size_t>(w);
  }
}

void wr_u64(int fd, std::uint64_t v) {
  char buf[24];
  int i = sizeof buf;
  buf[--i] = '\0';
  do {
    buf[--i] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0 && i > 0);
  wr(fd, buf + i);
}

void wr_hex(int fd, std::uint64_t v) {
  char buf[19];
  buf[0] = '0';
  buf[1] = 'x';
  for (int i = 0; i < 16; ++i) {
    buf[2 + i] = "0123456789abcdef"[(v >> (60 - 4 * i)) & 0xf];
  }
  buf[18] = '\0';
  wr(fd, buf);
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGBUS:
      return "SIGBUS";
    case SIGFPE:
      return "SIGFPE";
    case SIGABRT:
      return "SIGABRT";
  }
  return "signal";
}

/// Compose "<dir>/pygb-crash-<pid>[-<n>].report" into `out`; AS-safe.
void report_path(char* out, std::size_t cap, int attempt) {
  std::size_t o = 0;
  const auto put = [&](const char* s) {
    while (*s != '\0' && o + 1 < cap) out[o++] = *s++;
  };
  const auto put_u64 = [&](std::uint64_t v) {
    char buf[24];
    int i = sizeof buf;
    buf[--i] = '\0';
    do {
      buf[--i] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0 && i > 0);
    put(buf + i);
  };
  put(g_dir);
  put("/pygb-crash-");
  put_u64(static_cast<std::uint64_t>(::getpid()));
  if (attempt > 0) {
    put("-");
    put_u64(static_cast<std::uint64_t>(attempt));
  }
  put(".report");
  out[o] = '\0';
}

void restore_and_raise(int sig) {
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void handler(int sig, siginfo_t* info, void* /*ucontext*/) {
  if (g_in_handler) {
    // Fault inside the handler itself: no attribution, die now.
    restore_and_raise(sig);
    return;
  }
  g_in_handler = true;

  int expected = 0;
  if (!g_crash_latch.compare_exchange_strong(expected, 1,
                                             std::memory_order_acq_rel)) {
    // A concurrent thread is writing the report. Park until its SIG_DFL
    // re-raise terminates the process; nanosleep is AS-safe.
    for (;;) {
      struct timespec ts = {1, 0};
      ::nanosleep(&ts, nullptr);
    }
  }

  char path[kDirBytes + 64];
  int fd = -1;
  for (int attempt = 0; attempt < 8 && fd < 0; ++attempt) {
    report_path(path, sizeof path, attempt);
    fd = ::open(path, O_WRONLY | O_CREAT | O_EXCL, 0644);
  }
  if (fd >= 0) {
    detail::write_report(fd, sig,
                         info != nullptr ? info->si_addr : nullptr);
    ::close(fd);
    g_reports.fetch_add(1, std::memory_order_relaxed);
    // Lock-free fetch_add: AS-safe. Mostly for tests that exercise
    // write_report on a pipe; a real winner dies on the re-raise below.
    obs::counter_add(obs::Counter::kCrashReports);
    wr(2, "pygb: crash report written to ");
    wr(2, path);
    wr(2, "\n");
  } else {
    wr(2, "pygb: crash (");
    wr(2, signal_name(sig));
    wr(2, ") but no report could be created in ");
    wr(2, g_dir);
    wr(2, "\n");
  }
  restore_and_raise(sig);
}

}  // namespace

namespace detail {

void write_report(int fd, int sig, const void* addr) noexcept {
  wr(fd, "pygb crash report\nschema: pygb.crash\nschema_version: 1\n");
  wr(fd, "signal: ");
  wr_u64(fd, static_cast<std::uint64_t>(sig));
  wr(fd, " (");
  wr(fd, signal_name(sig));
  wr(fd, ")\nfault_addr: ");
  wr_hex(fd, reinterpret_cast<std::uintptr_t>(addr));
  wr(fd, "\npid: ");
  wr_u64(fd, static_cast<std::uint64_t>(::getpid()));
  wr(fd, "\n");

  // Active operation (torn reads acceptable; see governor.hpp).
  char op[128];
  governor::current_op_unsafe(op, sizeof op);
  wr(fd, "active_op: ");
  wr(fd, op[0] != '\0' ? op : "(idle)");
  wr(fd, "\n");

  // Span stack of the crashing thread, outermost first.
  const char* spans[obs::detail::kSpanStackMax];
  const int depth = obs::span_stack_unsafe(spans, obs::detail::kSpanStackMax);
  wr(fd, "span_stack:");
  if (depth == 0) wr(fd, " (empty)");
  const int shown =
      depth < obs::detail::kSpanStackMax ? depth : obs::detail::kSpanStackMax;
  for (int i = 0; i < shown; ++i) {
    wr(fd, i == 0 ? " " : " > ");
    wr(fd, spans[i]);
  }
  if (depth > shown) wr(fd, " > ...");
  wr(fd, "\n");

  // Raw backtrace. backtrace() was primed at install time, so libgcc's
  // unwinder is already resident and this does not allocate.
  void* frames[kBacktraceDepth];
  const int nframes = ::backtrace(frames, kBacktraceDepth);
  wr(fd, "backtrace:\n");
  ::backtrace_symbols_fd(frames, nframes, fd);

  // Attribution: any frame inside a registered JIT module maps back to the
  // DSL expression through the loader's module map.
  wr(fd, "jit_frames:\n");
  bool attributed = false;
  for (int i = 0; i < nframes; ++i) {
    const auto pc = reinterpret_cast<std::uintptr_t>(frames[i]);
    const jit::modmap::Entry* m = jit::modmap::find(pc);
    if (m == nullptr) continue;
    attributed = true;
    wr(fd, "  frame ");
    wr_u64(fd, static_cast<std::uint64_t>(i));
    wr(fd, ": pc=");
    wr_hex(fd, pc);
    wr(fd, " offset=");
    wr_hex(fd, pc - m->base);
    wr(fd, "\n    func: ");
    wr(fd, m->func);
    wr(fd, "\n    module_key: ");
    wr(fd, m->key);
    wr(fd, "\n    key_hash: ");
    wr_hex(fd, m->key_hash);
    wr(fd, "\n    generated_line: ");
    wr_u64(fd, m->kernel_line);
    wr(fd, "\n    module: ");
    wr(fd, m->so_path);
    wr(fd, "\n    dsl_source: see .srcmap sidecar next to the module\n");
  }
  if (!attributed) wr(fd, "  (no frames inside JIT modules)\n");

  // Every loaded module, for context even when the fault is in host code.
  wr(fd, "jit_modules:\n");
  const std::size_t nmod = jit::modmap::count();
  for (std::size_t i = 0; i < nmod; ++i) {
    const jit::modmap::Entry* m = jit::modmap::at(i);
    if (m == nullptr) break;
    wr(fd, "  ");
    wr_hex(fd, m->base);
    wr(fd, "-");
    wr_hex(fd, m->end);
    wr(fd, " func=");
    wr(fd, m->func);
    wr(fd, " key_hash=");
    wr_hex(fd, m->key_hash);
    wr(fd, " line=");
    wr_u64(fd, m->kernel_line);
    wr(fd, "\n");
  }
  if (nmod == 0) wr(fd, "  (none)\n");

  // Counters cover governor / breaker / cache state (relaxed atomic loads;
  // leaf-module mirrors may lag — the flight recorder tail below has the
  // authoritative transition order).
  wr(fd, "counters:\n");
  for (unsigned i = 0; i < obs::kCounterCount; ++i) {
    const std::uint64_t v =
        obs::detail::g_counters[i].load(std::memory_order_relaxed);
    if (v == 0) continue;
    wr(fd, "  ");
    wr(fd, obs::counter_name(static_cast<obs::Counter>(i)));
    wr(fd, ": ");
    wr_u64(fd, v);
    wr(fd, "\n");
  }

  wr(fd, "flight_recorder:\n");
  flightrec::dump_to_fd(fd, 64);
  wr(fd, "end of report\n");
}

}  // namespace detail

void install(const char* dir) {
  bool expected = false;
  if (!g_installed.compare_exchange_strong(expected, true)) return;
  if (dir == nullptr || *dir == '\0') dir = ".";
  std::strncpy(g_dir, dir, sizeof g_dir - 1);
  ::mkdir(g_dir, 0755);  // best effort; open() reports real failures

  // Prime the unwinder outside signal context: the first backtrace() call
  // dlopens libgcc_s and allocates — neither is AS-safe.
  void* prime[4];
  ::backtrace(prime, 4);

  stack_t ss = {};
  ss.ss_sp = g_altstack;
  ss.ss_size = sizeof g_altstack;
  ::sigaltstack(&ss, nullptr);

  struct sigaction sa = {};
  sa.sa_sigaction = &handler;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  ::sigemptyset(&sa.sa_mask);
  for (int sig : kSignals) ::sigaction(sig, &sa, nullptr);
}

bool installed() noexcept {
  return g_installed.load(std::memory_order_relaxed);
}

const char* report_dir() noexcept {
  return installed() ? g_dir : "";
}

std::uint64_t reports_written() noexcept {
  return g_reports.load(std::memory_order_relaxed);
}

}  // namespace pygb::crash
