// pygb/jit/subprocess.cpp — fork/execvp with deadline, rlimits, process-
// group kill escalation, stderr capture, and errno-classified retry.
#include "pygb/jit/subprocess.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <thread>

#include "pygb/config.hpp"
#include "pygb/faultinj.hpp"
#include "pygb/obs/obs.hpp"

namespace pygb::jit {

namespace {

using Clock = std::chrono::steady_clock;

/// Child stderr kept for diagnostics is capped: a compiler spewing
/// template errors at full tilt must not balloon the caller's memory.
constexpr std::size_t kCaptureCap = 64 * 1024;

int ms_until(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left < 0 ? 0 : static_cast<int>(left);
}

/// Poll floor when no pidfd is available: waitpid(WNOHANG) is then the
/// only way to notice the child's exit once its pipes have closed.
constexpr int kFallbackPollMs = 2;

/// A close-on-exec fd that becomes readable when `pid` exits, or -1
/// (kernels before 5.3, seccomp filters). Called right after fork, before
/// any wait, so the pid cannot have been reaped and reused yet.
int open_pidfd(pid_t pid) {
#ifdef SYS_pidfd_open
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  return -1;
#endif
}

/// Drain whatever is readable on fd into out (respecting the cap).
/// Returns false once the fd reaches EOF (and closes it).
bool drain_fd(int& fd, std::string& out) {
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      if (out.size() < kCaptureCap) {
        out.append(buf, static_cast<std::size_t>(
                            std::min<ssize_t>(n, static_cast<ssize_t>(
                                                     kCaptureCap - out.size()))));
      }
      continue;
    }
    if (n == 0) {
      ::close(fd);
      fd = -1;
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    ::close(fd);
    fd = -1;
    return false;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Transient spawn-level errnos: the machine was briefly out of a
/// resource; the same exec may well succeed in a moment.
bool transient_errno(int err) {
  return err == EAGAIN || err == ENOMEM || err == EMFILE || err == ENFILE ||
         err == ETXTBSY;
}

/// A compiler exiting nonzero is normally a deterministic diagnosis of
/// the source — permanent. The exception is environmental exhaustion
/// (tmpdir full, out of memory inside cc1plus), which the driver reports
/// on stderr; those are worth a retry and must not poison the key.
bool transient_compiler_text(const std::string& text) {
  return text.find("No space left on device") != std::string::npos ||
         text.find("cannot create temporary") != std::string::npos ||
         text.find("out of memory") != std::string::npos ||
         text.find("Cannot allocate memory") != std::string::npos;
}

/// Everything the child does between fork and exec. Only async-signal-
/// safe calls (we may be forking from a multithreaded process).
[[noreturn]] void child_exec(const RunOptions& options,
                             faultinj::Action fault, int err_w, int out_w,
                             int status_w) {
  ::setpgid(0, 0);  // own group, so the parent can kill the whole tree

  struct rlimit rl;
  if (options.timeout_ms > 0) {
    // Belt for the braces: a grandchild that double-forks out of the
    // process group still burns down its CPU budget on its own.
    rl.rlim_cur = rl.rlim_max =
        static_cast<rlim_t>(options.timeout_ms / 1000 + 5);
    ::setrlimit(RLIMIT_CPU, &rl);
  }
  if (options.mem_limit_mb > 0) {
    rl.rlim_cur = rl.rlim_max =
        static_cast<rlim_t>(options.mem_limit_mb) << 20;
    ::setrlimit(RLIMIT_AS, &rl);
  }
  rl.rlim_cur = rl.rlim_max = 0;  // a crashing compiler must not dump core
  ::setrlimit(RLIMIT_CORE, &rl);

  while (::dup2(err_w, STDERR_FILENO) < 0 && errno == EINTR) {
  }
  if (out_w >= 0) {
    while (::dup2(out_w, STDOUT_FILENO) < 0 && errno == EINTR) {
    }
  } else if (int devnull = ::open("/dev/null", O_WRONLY); devnull >= 0) {
    ::dup2(devnull, STDOUT_FILENO);
    ::close(devnull);
  }
  ::close(err_w);
  if (out_w >= 0) ::close(out_w);

  // Enact the injected fault INSIDE the sandbox: the parent's deadline,
  // kill escalation, and reap machinery get exercised for real.
  switch (fault) {
    case faultinj::Action::kHang: {
      const char msg[] = "pygb faultinj: compile child hanging\n";
      (void)!::write(STDERR_FILENO, msg, sizeof msg - 1);
      ::close(status_w);  // "exec succeeded" as far as the parent knows
      while (true) ::pause();
    }
    case faultinj::Action::kFail: {
      const char msg[] = "pygb faultinj: compile child failing\n";
      (void)!::write(STDERR_FILENO, msg, sizeof msg - 1);
      ::_exit(1);
    }
    case faultinj::Action::kSlow: {
      struct timespec ts{2, 0};
      ::nanosleep(&ts, nullptr);
      break;
    }
    default:
      break;
  }

  std::vector<char*> argv;
  argv.reserve(options.argv.size() + 1);
  for (const auto& arg : options.argv) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  ::execvp(argv[0], argv.data());

  // exec failed: report errno through the CLOEXEC status pipe (the parent
  // distinguishes "compiler missing" from "compiler ran and failed").
  const int err = errno;
  (void)!::write(status_w, &err, sizeof err);
  ::_exit(127);
}

/// One launch, bounded by the deadline. Fills status/exit/signal/errno
/// and appends captured output; the caller owns retry policy.
void run_once(const RunOptions& options, RunOutcome& outcome) {
  int err_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  int status_pipe[2] = {-1, -1};
  if (::pipe(err_pipe) != 0) {
    outcome.status = RunStatus::kSpawnFailed;
    outcome.spawn_errno = errno;
    outcome.transient = transient_errno(errno);
    return;
  }
  if (options.capture_stdout && ::pipe(out_pipe) != 0) {
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    outcome.status = RunStatus::kSpawnFailed;
    outcome.spawn_errno = errno;
    outcome.transient = transient_errno(errno);
    return;
  }
  if (::pipe2(status_pipe, O_CLOEXEC) != 0) {
    for (int fd : {err_pipe[0], err_pipe[1], out_pipe[0], out_pipe[1]}) {
      if (fd >= 0) ::close(fd);
    }
    outcome.status = RunStatus::kSpawnFailed;
    outcome.spawn_errno = errno;
    outcome.transient = transient_errno(errno);
    return;
  }

  // Decide the injected fault BEFORE forking (the engine takes a mutex,
  // which must never be touched in a fork child of a threaded process).
  faultinj::Action fault = faultinj::Action::kNone;
  if (options.fault_site != nullptr) {
    if (auto d = faultinj::check(options.fault_site)) {
      fault = d.action;
      obs::counter_add(obs::Counter::kFaultsInjected);
    }
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    for (int fd : {err_pipe[0], err_pipe[1], out_pipe[0], out_pipe[1],
                   status_pipe[0], status_pipe[1]}) {
      if (fd >= 0) ::close(fd);
    }
    outcome.status = RunStatus::kSpawnFailed;
    outcome.spawn_errno = err;
    outcome.transient = transient_errno(err);
    return;
  }
  if (pid == 0) {
    ::close(err_pipe[0]);
    if (out_pipe[0] >= 0) ::close(out_pipe[0]);
    ::close(status_pipe[0]);
    child_exec(options, fault, err_pipe[1], out_pipe[1], status_pipe[1]);
  }

  // Both sides race to move the child into its own group so that killpg
  // can never hit the parent's group; whichever setpgid lands first wins.
  ::setpgid(pid, pid);

  ::close(err_pipe[1]);
  if (out_pipe[1] >= 0) ::close(out_pipe[1]);
  ::close(status_pipe[1]);
  int err_r = err_pipe[0];
  int out_r = out_pipe[0];
  int status_r = status_pipe[0];
  set_nonblocking(err_r);
  if (out_r >= 0) set_nonblocking(out_r);
  set_nonblocking(status_r);
  // The pipes can reach EOF before the child is reapable; the pidfd is
  // what wakes the poll below when it is.
  const int pid_fd = open_pidfd(pid);

  const bool bounded = options.timeout_ms > 0;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(
                         bounded ? options.timeout_ms : 0);
  bool term_sent = false;
  bool kill_sent = false;
  Clock::time_point kill_at{};  // SIGKILL escalation time once TERM is out
  int exec_errno = 0;
  bool reaped = false;
  int wait_status = 0;

  while (!reaped) {
    // Reap without blocking, so pipe draining and the deadline stay live.
    const pid_t w = ::waitpid(pid, &wait_status, WNOHANG);
    if (w == pid) {
      reaped = true;
      break;
    }

    const auto now = Clock::now();
    if (bounded && !term_sent && now >= deadline) {
      obs::counter_add(obs::Counter::kJitTimeouts);
      if (::killpg(pid, SIGTERM) != 0) ::kill(pid, SIGTERM);
      term_sent = true;
      kill_at = now + std::chrono::milliseconds(options.kill_grace_ms);
    } else if (term_sent && !kill_sent && now >= kill_at) {
      obs::counter_add(obs::Counter::kJitKills);
      if (::killpg(pid, SIGKILL) != 0) ::kill(pid, SIGKILL);
      kill_sent = true;
      // SIGKILL cannot be ignored: the child WILL exit; reap it
      // synchronously and stop polling.
      while (::waitpid(pid, &wait_status, 0) < 0 && errno == EINTR) {
      }
      reaped = true;
      break;
    }

    struct pollfd fds[4];
    nfds_t nfds = 0;
    if (err_r >= 0) fds[nfds++] = {err_r, POLLIN, 0};
    if (out_r >= 0) fds[nfds++] = {out_r, POLLIN, 0};
    if (status_r >= 0) fds[nfds++] = {status_r, POLLIN, 0};
    if (pid_fd >= 0) fds[nfds++] = {pid_fd, POLLIN, 0};

    // Sleep until output, exit, or the next deadline step. Without a
    // pidfd only waitpid(WNOHANG) sees the exit, so keep a short floor.
    int wait_ms = pid_fd >= 0 ? -1 : kFallbackPollMs;
    auto cap = [&wait_ms](int ms) {
      wait_ms = wait_ms < 0 ? ms : std::min(wait_ms, ms);
    };
    if (term_sent && !kill_sent) {
      cap(std::max(1, ms_until(kill_at)));
    } else if (bounded && !term_sent) {
      cap(std::max(1, ms_until(deadline)));
    }
    if (nfds == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
      continue;
    }
    const int pr = ::poll(fds, nfds, wait_ms);
    if (pr < 0 && errno != EINTR) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kFallbackPollMs));
      continue;
    }
    for (nfds_t i = 0; pr > 0 && i < nfds; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (fds[i].fd == err_r) {
        drain_fd(err_r, outcome.captured);
      } else if (fds[i].fd == out_r) {
        drain_fd(out_r, outcome.out);
      } else if (fds[i].fd == status_r) {
        int e = 0;
        const ssize_t n = ::read(status_r, &e, sizeof e);
        if (n == static_cast<ssize_t>(sizeof e)) exec_errno = e;
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
          ::close(status_r);
          status_r = -1;
        }
      }
    }
  }

  if (pid_fd >= 0) ::close(pid_fd);

  // The child is gone; drain what it wrote before dying. A grandchild
  // holding the pipe open cannot stall us: these fds are non-blocking.
  if (err_r >= 0) {
    drain_fd(err_r, outcome.captured);
    if (err_r >= 0) ::close(err_r);
  }
  if (out_r >= 0) {
    drain_fd(out_r, outcome.out);
    if (out_r >= 0) ::close(out_r);
  }
  if (status_r >= 0) {
    int e = 0;
    if (::read(status_r, &e, sizeof e) == static_cast<ssize_t>(sizeof e)) {
      exec_errno = e;
    }
    ::close(status_r);
  }

  if (term_sent) {
    outcome.status = RunStatus::kTimeout;
    outcome.term_signal = kill_sent ? SIGKILL : SIGTERM;
    outcome.transient = true;  // the key is not doomed, this attempt was
    return;
  }
  if (exec_errno != 0) {
    outcome.status = RunStatus::kSpawnFailed;
    outcome.spawn_errno = exec_errno;
    outcome.transient = transient_errno(exec_errno);
    return;
  }
  if (WIFEXITED(wait_status)) {
    outcome.exit_code = WEXITSTATUS(wait_status);
    outcome.status =
        outcome.exit_code == 0 ? RunStatus::kOk : RunStatus::kExitNonzero;
    outcome.transient = outcome.exit_code != 0 &&
                        transient_compiler_text(outcome.captured);
    return;
  }
  if (WIFSIGNALED(wait_status)) {
    outcome.status = RunStatus::kSignaled;
    outcome.term_signal = WTERMSIG(wait_status);
    // Killed from outside (OOM killer, operator): the source is not at
    // fault; a later attempt may survive.
    outcome.transient = true;
    return;
  }
  outcome.status = RunStatus::kSignaled;
  outcome.transient = true;
}

}  // namespace

const char* to_string(RunStatus s) noexcept {
  switch (s) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kExitNonzero:
      return "exit-nonzero";
    case RunStatus::kSignaled:
      return "signaled";
    case RunStatus::kTimeout:
      return "timeout";
    case RunStatus::kSpawnFailed:
      return "spawn-failed";
  }
  return "?";
}

std::string RunOutcome::describe() const {
  switch (status) {
    case RunStatus::kOk:
      return "exit status 0";
    case RunStatus::kExitNonzero:
      return "exit status " + std::to_string(exit_code);
    case RunStatus::kSignaled:
      return "killed by signal " + std::to_string(term_signal);
    case RunStatus::kTimeout:
      return std::string("deadline exceeded (") +
             (term_signal == SIGKILL ? "SIGKILL" : "SIGTERM") +
             " sent to process group)";
    case RunStatus::kSpawnFailed:
      return std::string("failed to launch: ") + std::strerror(spawn_errno);
  }
  return "unrecognized outcome";
}

RunOutcome run_subprocess(const RunOptions& options) {
  RunOutcome outcome;
  if (options.argv.empty()) {
    outcome.spawn_errno = EINVAL;
    return outcome;
  }
  const int max_attempts = std::max(1, options.max_attempts);
  int backoff_ms = std::max(1, options.backoff_ms);
  const auto start = Clock::now();
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    outcome.status = RunStatus::kSpawnFailed;
    outcome.exit_code = -1;
    outcome.term_signal = 0;
    outcome.spawn_errno = 0;
    outcome.transient = false;
    run_once(options, outcome);
    outcome.attempts = attempt;
    if (outcome.ok()) break;
    // Retry only what a retry can fix: transient resource exhaustion.
    // A deadline expiry is transient for the BREAKER (the key is not
    // doomed) but is not retried here — the deadline was the caller's
    // whole time budget.
    const bool retryable =
        outcome.transient && outcome.status != RunStatus::kTimeout;
    if (!retryable || attempt == max_attempts) break;
    obs::counter_add(obs::Counter::kJitRetries);
    // Exponential backoff with bounded jitter in [0.5, 1.5) of the nominal
    // delay: N server threads that hit the same cold key (or the same
    // overloaded compiler) must not sleep identical schedules and retry in
    // lockstep. The draw is keyed on this command and the attempt number,
    // and replays exactly under a PYGB_FAULTS seed (faultinj::jitter_unit).
    std::uint64_t stream = 0xba0cc0ffULL;
    for (const std::string& arg : options.argv) {
      stream = stream * 1099511628211ULL ^ std::hash<std::string>{}(arg);
    }
    const double spread =
        0.5 + faultinj::jitter_unit(stream, static_cast<std::uint64_t>(attempt));
    const int delay_ms =
        std::max(1, static_cast<int>(static_cast<double>(backoff_ms) * spread));
    if (!outcome.captured.empty() && outcome.captured.back() != '\n') {
      outcome.captured += '\n';
    }
    outcome.captured += "pygb: transient failure (" + outcome.describe() +
                        "); retrying in " + std::to_string(delay_ms) +
                        "ms\n";
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    backoff_ms = std::min(backoff_ms * 2, 5000);
  }
  outcome.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return outcome;
}

int jit_timeout_ms() {
  return static_cast<int>(config::get("PYGB_JIT_TIMEOUT_MS"));
}

std::uint64_t jit_mem_limit_mb() {
  return config::get("PYGB_JIT_MEM_LIMIT_MB");
}

int jit_max_retries() {
  return static_cast<int>(config::get("PYGB_JIT_RETRIES"));
}

std::vector<std::string> split_command(const std::string& command) {
  std::vector<std::string> out;
  std::string word;
  for (char c : command) {
    if (c == ' ' || c == '\t') {
      if (!word.empty()) {
        out.push_back(word);
        word.clear();
      }
    } else {
      word += c;
    }
  }
  if (!word.empty()) out.push_back(word);
  return out;
}

}  // namespace pygb::jit
