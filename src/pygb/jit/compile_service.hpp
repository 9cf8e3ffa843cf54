// pygb/jit/compile_service.hpp — the persistent compile service: a
// long-lived `pygb_compiled` worker process that amortizes compiler
// startup (and keeps a precompiled header of the JIT glue warm) across
// many module compiles, supervised by the client process so it can die
// without taking a single user request with it.
//
// Why a daemon at all: every cold JIT module pays one full g++ fork/exec —
// driver startup, header parse, the works. Codon-style resident compilers
// show what a warm process buys; for pygb the dominant reusable artifact
// is the parse of pygb/jit/glue.hpp, which every generated module includes
// first. The worker builds it ONCE into a .gch at startup and serves each
// subsequent compile against it.
//
// Why it must be supervised: pygb_serve is multi-tenant. A resident
// compiler that can hang, crash, or babble garbage is a new
// single-point-of-failure unless every failure mode is detected, bounded,
// and survivable:
//
//   * the worker is spawned with the PR 4 sandbox discipline
//     (spawn_supervised: own process group, no core dumps, CLOEXEC
//     exec-errno status pipe, SIGKILL-on-parent-death) and killed with the
//     same SIGTERM → grace → SIGKILL escalation (terminate_supervised);
//   * client and worker speak a VERSIONED, LENGTH-PREFIXED frame protocol
//     over a socketpair, with a per-request deadline on the client side —
//     a hung worker is killed and restarted, never waited on forever;
//   * worker death, hang, or protocol corruption (bad frame, wrong
//     version, wrong request id) triggers a restart with capped
//     exponential backoff + faultinj::jitter_unit;
//   * PYGB_COMPILED_MAX_RESTARTS consecutive service failures trip a
//     SERVICE-LEVEL breaker (TTL'd, with a reopen probe) so every compile
//     transparently degrades to the existing in-process fork/exec path —
//     which also remains the only path when PYGB_COMPILED=off (the
//     default). Service trouble costs latency, never availability.
//
// The degradation ladder a compile request descends (docs/ROBUSTNESS.md):
//
//   warm service → service restart → service breaker → in-process
//   fork/exec → (kAuto only) interpreter
//
// faultinj site "compiled" is enacted INSIDE the worker (it inherits
// PYGB_FAULTS), so chaos runs drive the real kill/restart machinery.
//
// Env knobs (docs/API.md):
//   PYGB_COMPILED              on|off — route compiles through the service
//   PYGB_COMPILED_BIN          worker binary (default: a `pygb_compiled`
//                              sibling of /proc/self/exe, then ../tools/,
//                              then $PATH)
//   PYGB_COMPILED_MAX_RESTARTS consecutive failures before the breaker (3)
//   PYGB_COMPILED_TIMEOUT_MS   per-request deadline (default
//                              PYGB_JIT_TIMEOUT_MS)
//   PYGB_COMPILED_BREAKER_TTL_MS  breaker open duration (60000)
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "pygb/jit/compiler.hpp"

namespace pygb::jit {

// ---------------------------------------------------------------------------
// Wire protocol (shared by the client below and tools/pygb_compiled.cpp)
// ---------------------------------------------------------------------------

namespace compiled {

/// Bumped when the frame grammar changes. The worker announces its version
/// in the handshake; a mismatch is protocol corruption (kill + restart),
/// never a parse attempt — a stale worker binary from an older build must
/// not be trusted with requests.
inline constexpr int kProtocolVersion = 1;

/// First handshake field. A worker that doesn't lead with this is not a
/// pygb_compiled worker at all.
inline constexpr const char* kMagic = "PYGB-COMPILED";

/// Frames larger than this are protocol corruption (stderr tails are
/// capped far below it by the subprocess runner).
inline constexpr std::uint32_t kMaxFrameBytes = 4u << 20;

/// Field separator inside frame payloads. Only the LAST field of a payload
/// (the captured stderr tail) may contain arbitrary bytes; parsers split
/// at most the leading fixed field count.
inline constexpr char kSep = '\x1f';

/// Write one `[u32 LE length][payload]` frame. Returns false on any write
/// error (EPIPE = peer died).
bool write_frame(int fd, const std::string& payload);

/// Read one frame within `deadline_ms` (<=0 waits forever). Outcomes are
/// distinguished so the supervisor can classify: kOk fills `payload`;
/// kEof = peer closed (death); kTimeout = deadline expired (hang);
/// kMalformed = oversized/short frame (corruption).
enum class ReadResult : std::uint8_t { kOk, kEof, kTimeout, kMalformed };
ReadResult read_frame(int fd, std::string* payload, int deadline_ms);

/// Split the first `max_fields - 1` separators of `payload`; the final
/// field takes the remainder verbatim (so a stderr tail containing kSep
/// can't shift the grammar).
void split_fields(const std::string& payload, char sep,
                  std::size_t max_fields, std::string out[]);

}  // namespace compiled

// ---------------------------------------------------------------------------
// Client / supervisor
// ---------------------------------------------------------------------------

/// PYGB_COMPILED_MAX_RESTARTS — consecutive service failures tolerated
/// before the service breaker opens (default 3; minimum 0 = first failure
/// trips it).
int compiled_max_restarts();

/// PYGB_COMPILED_TIMEOUT_MS — per-request deadline for one service
/// compile, handshake included (default: jit_timeout_ms()).
int compiled_timeout_ms();

/// PYGB_COMPILED_BREAKER_TTL_MS — how long the tripped service breaker
/// short-circuits before allowing one reopen probe (default 60000).
int compiled_breaker_ttl_ms();

/// Resolve the worker binary: PYGB_COMPILED_BIN, else a `pygb_compiled`
/// sibling of /proc/self/exe, else `../tools/pygb_compiled` relative to
/// the executable (the build-tree layout for tests and benches), else the
/// bare name for $PATH resolution.
std::string compiled_worker_path();

class CompileService {
 public:
  /// Process-wide instance (one worker serves every thread's compiles; the
  /// worker compiles serially anyway, and requests serialize on its lock).
  static CompileService& instance();

  /// One service attempt. `serviced` means the WORKER answered — `result`
  /// is then authoritative, whether the compile succeeded or the compiler
  /// diagnosed the source. `serviced == false` is a SERVICE failure (off,
  /// breaker open, spawn failed, worker died/hung/corrupted): the caller
  /// falls back to the in-process runner and counts kCompiledFallbacks.
  struct Attempt {
    bool serviced = false;
    CompileResult result;
    std::string note;  ///< service-failure reason when !serviced
  };

  /// PYGB_COMPILED=on|1. Re-read by reset().
  bool enabled();

  /// Compile source → output on the service, bounded by `timeout_ms`
  /// (<=0 uses compiled_timeout_ms()). Thread-safe; never throws.
  Attempt compile(const std::string& source_path,
                  const std::string& output_path, int timeout_ms);

  /// Observability / test snapshot (takes the service lock).
  struct State {
    bool enabled = false;
    bool running = false;       ///< a worker is alive right now
    bool breaker_open = false;  ///< service-level breaker (not per-key)
    int restarts = 0;           ///< lifetime respawns after a failure
    int consecutive_failures = 0;
    pid_t worker_pid = -1;
    bool pch = false;  ///< worker compiles with the build-time PCH
  };
  State state();

  /// Kill and reap the worker (SIGTERM → grace → SIGKILL). Breaker and
  /// restart bookkeeping survive; the next enabled compile respawns.
  void shutdown();

  /// shutdown() + forget breaker/backoff state + re-read every env knob.
  /// Test fixtures call this after flipping PYGB_COMPILED*.
  void reset();

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

 private:
  CompileService();
  struct Impl;
  Impl* impl_;  ///< leaked on purpose (at-exit safety, obs discipline)
};

/// Async-signal-safe service snapshot for the crash handler: relaxed
/// atomic loads only, no locks, no allocation (pygb/obs/crash.cpp).
namespace compiled_state {
struct Snapshot {
  int enabled = 0;
  long worker_pid = -1;       ///< -1 = no worker alive
  unsigned long restarts = 0;
  int breaker_open = 0;
  unsigned long requests = 0;
  unsigned long served = 0;
  unsigned long fallbacks = 0;
};
Snapshot snapshot() noexcept;
}  // namespace compiled_state

}  // namespace pygb::jit
