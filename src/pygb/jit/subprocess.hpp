// pygb/jit/subprocess.hpp — the sandboxed compiler runner behind Fig. 9's
// dynamic-compilation stage.
//
// The JIT used to launch g++ through std::system: a shell parses a
// string-concatenated command (quoting bugs become injection bugs), and
// the wait is UNBOUNDED — a hung or runaway compiler stalls the calling
// operation, and every coalesced waiter parked on its in-flight record,
// forever. That defeats the whole point of the kAuto degradation ladder:
// an interpreter fallback nobody can reach is no fallback.
//
// This runner makes every child invocation bounded and classified:
//
//   * fork/execvp with an argv VECTOR — no shell, no quoting, paths with
//     spaces/quotes/metacharacters are just bytes.
//   * a WALL-CLOCK DEADLINE (PYGB_JIT_TIMEOUT_MS, default 30s): on expiry
//     the child's process group gets SIGTERM, then SIGKILL after a short
//     grace — the tree dies, not just the direct child — and the child is
//     always reaped (no zombies).
//   * child RLIMITS: RLIMIT_CPU derived from the deadline (a detached
//     grandchild that escapes the group kill still dies on its own) and
//     RLIMIT_AS from PYGB_JIT_MEM_LIMIT_MB (a runaway template expansion
//     gets ENOMEM instead of triggering the OOM killer). Core dumps off.
//   * captured stderr (pipe, not a temp file) folded into the outcome for
//     diagnostics, with a size cap.
//   * errno-CLASSIFIED outcomes: transient failures (fork EAGAIN/ENOMEM,
//     tmpdir-full compiler exits, externally-signaled children) are
//     retried with bounded exponential backoff and marked `transient` so
//     the registry's circuit breaker can treat them differently from a
//     deterministic compile error. Deadline expiries are transient but
//     NOT retried — the deadline already consumed the caller's budget.
//
// pygb::faultinj site "compile" is enacted INSIDE the fork: hang parks
// the child before exec, fail exits it, slow delays the exec — so chaos
// tests drive the real kill/reap machinery, not a simulation of it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pygb::jit {

/// How a child invocation ended.
enum class RunStatus : std::uint8_t {
  kOk,           ///< exited 0
  kExitNonzero,  ///< exited with a nonzero code (e.g. compile error)
  kSignaled,     ///< killed by a signal we did not send (OOM killer, …)
  kTimeout,      ///< deadline expired; we killed the process group
  kSpawnFailed,  ///< fork/exec never produced a running child
};

const char* to_string(RunStatus s) noexcept;

struct RunOutcome {
  RunStatus status = RunStatus::kSpawnFailed;
  int exit_code = -1;     ///< kExitNonzero/kOk
  int term_signal = 0;    ///< kSignaled/kTimeout: what ended the child
  int spawn_errno = 0;    ///< kSpawnFailed: fork/exec errno
  bool transient = false; ///< worth retrying later (breaker classification)
  int attempts = 0;       ///< total child launches (retries included)
  double seconds = 0.0;   ///< wall time across all attempts
  std::string captured;   ///< child stderr (size-capped), all attempts
  std::string out;        ///< child stdout when capture_stdout was set

  bool ok() const noexcept { return status == RunStatus::kOk; }
  /// Human-readable one-liner ("exit status 42", "killed after 30000ms").
  std::string describe() const;
};

struct RunOptions {
  std::vector<std::string> argv;  ///< argv[0] resolved via PATH (execvp)
  int timeout_ms = 0;             ///< 0 = no deadline
  int kill_grace_ms = 1000;       ///< SIGTERM → SIGKILL escalation gap
  std::uint64_t mem_limit_mb = 0; ///< RLIMIT_AS for the child (0 = off)
  int max_attempts = 1;           ///< launches for transient failures
  int backoff_ms = 100;           ///< first retry delay; doubles per retry
  bool capture_stdout = false;    ///< collect stdout into RunOutcome::out
  /// faultinj site consulted once per launch and enacted in the child
  /// ("compile"); nullptr skips the hook entirely.
  const char* fault_site = nullptr;
};

/// Run the child to completion (or deadline) and classify the outcome.
/// Never throws; never leaves a zombie; kills the child's whole process
/// group on timeout. Bumps obs counters jit_timeouts / jit_kills /
/// jit_retries as the corresponding events happen.
RunOutcome run_subprocess(const RunOptions& options);

/// PYGB_JIT_TIMEOUT_MS — wall-clock budget for one compiler invocation
/// (default 30000; 0 disables the deadline).
int jit_timeout_ms();

/// PYGB_JIT_MEM_LIMIT_MB — child address-space cap (default 0 = off).
std::uint64_t jit_mem_limit_mb();

/// PYGB_JIT_RETRIES — extra launches allowed for TRANSIENT failures
/// (default 2, so up to three attempts; 0 disables retry).
int jit_max_retries();

/// Split a command string on whitespace ("ccache g++" → {"ccache","g++"}).
/// PYGB_CXX historically accepted a shell-ish command prefix; argv-based
/// execution keeps that working without ever consulting a shell.
std::vector<std::string> split_command(const std::string& command);

}  // namespace pygb::jit
