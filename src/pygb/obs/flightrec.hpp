// pygb/obs/flightrec.hpp — the always-on flight recorder: a fixed-size
// per-thread ring of recent pipeline events, recorded unconditionally at a
// handful of relaxed atomic stores per event and drained on demand.
//
// This is the postmortem half of pygb::obs. Spans and histograms are
// opt-in and allocate; the flight recorder is neither — it exists so that
// when a process dies (SIGSEGV inside a JIT module, a wedged governor
// deadline, an OOM kill one op later), the crash report in PYGB_CRASH_DIR
// can say what the dispatch pipeline was doing in the moments before:
// which ops began and ended, which backend served them, what compiled,
// what the breaker and governor did.
//
// Design constraints, in order:
//
//   * RECORDING IS ALWAYS ON and must cost nanoseconds: one relaxed
//     fetch_add on the global sequence counter, one on the ring cursor,
//     and eight relaxed word stores into the claimed slot. No locks, no
//     allocation, no branches on configuration.
//   * READABLE FROM A SIGNAL HANDLER: every slot is an array of
//     std::atomic<std::uint64_t> words (a seqlock: word 0 is the sequence
//     number, stored 0 → payload → seq with release ordering), so both
//     snapshot() and the async-signal-safe dump_to_fd() read with plain
//     atomic loads and detect torn slots by re-reading word 0 — no data
//     races, TSan-clean, no UB.
//   * LEAF MODULE: no dependencies on the rest of pygb, so the gbtl
//     worker pool and the governor (which must not link libpygb) can
//     record events too. The obs counter kFlightEvents mirrors
//     total_recorded() the same way governor stats are mirrored.
//
// Threads register a ring on first record; rings are heap-allocated and
// leaked so a ring outlives its thread (events from an exited worker still
// appear in a later crash report). When more than kMaxRings threads record
// (absurd for this codebase), the surplus threads drop events and count
// them.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pygb::flightrec {

/// What happened. Values are stable (they appear in crash reports and the
/// drain API; renumbering would garble postmortems of older builds).
enum class EventKind : std::uint16_t {
  kNone = 0,        ///< empty slot
  kOpBegin = 1,     ///< eval_into: func about to dispatch (v0=target nnz,
                    ///< v1=target dim)
  kOpEnd = 2,       ///< dispatch: kernel returned (v0=duration ns,
                    ///< v1=dispatch-key hash, a32=backend code)
  kChain = 3,       ///< fused chain dispatched (v0=statements, v1=params)
  kCompileBegin = 4,///< registry: g++ starting (detail=stem, v1=key hash)
  kCompileEnd = 5,  ///< registry: g++ done (v0=duration ns, a32=1 on ok)
  kModuleLoad = 6,  ///< loader: module dlopen'd + verified (detail=stem)
  kQuarantine = 7,  ///< cache: module failed verify/load, moved aside
  kBreaker = 8,     ///< circuit transition (detail=state, v1=key hash)
  kGovernor = 9,    ///< deadline/cancel/budget event (detail=which)
  kPool = 10,       ///< worker pool resize / lazy start (v0=threads)
  kFault = 11,      ///< fault injection fired (detail=site)
  kModule = 12,     ///< event recorded from inside a JIT module via the
                    ///< injected PoolApi (detail=module-provided note)
  kCrash = 13,      ///< crash handler entered (v0=signal number)
  kFusionPlan = 14, ///< fusion-planner decision (detail = "flush"/"fuse"/
                    ///< "eager"/"dce"/"split"/"fallback"; v0/v1 decision-
                    ///< specific, see docs/FUSION.md)
  kServe = 15,      ///< pygb_serve lifecycle (detail = "admit"/"reject"/
                    ///< "done"/"error"/"cancel"/"disconnect"/"drain";
                    ///< v0 = request id, see docs/SERVING.md)
};

const char* kind_name(EventKind k) noexcept;

/// Backend codes for kOpEnd's a32 (mirrors the registry's backend strings).
enum : std::uint32_t {
  kBackendUnknown = 0,
  kBackendStatic = 1,
  kBackendJitMemory = 2,
  kBackendJitDisk = 3,
  kBackendJitCompile = 4,
  kBackendJitWait = 5,
  kBackendInterp = 6,
};
std::uint32_t backend_code(const char* backend) noexcept;
const char* backend_name(std::uint32_t code) noexcept;

inline constexpr std::size_t kDetailBytes = 24;  ///< truncating copy
inline constexpr std::size_t kRingEvents = 256;  ///< per thread, power of 2
inline constexpr std::size_t kMaxRings = 256;    ///< registered threads

/// A decoded event (the drain-side representation; slots themselves are
/// atomic word arrays).
struct Event {
  std::uint64_t seq = 0;   ///< global claim order, 1-based; 0 = empty
  std::uint64_t t_ns = 0;  ///< steady-clock ns (flightrec-local anchor)
  std::uint64_t v0 = 0;
  std::uint64_t v1 = 0;
  std::uint32_t a32 = 0;
  EventKind kind = EventKind::kNone;
  std::uint16_t tid = 0;   ///< flightrec-assigned small thread id
  char detail[kDetailBytes] = {};  ///< NUL-terminated, truncated
};

/// Record one event into the calling thread's ring. Always on; never
/// throws, never allocates after the thread's first record.
void record(EventKind kind, const char* detail = nullptr,
            std::uint64_t v0 = 0, std::uint64_t v1 = 0,
            std::uint32_t a32 = 0) noexcept;

/// Total events ever recorded (the global sequence counter). Mirrored
/// into obs Counter::kFlightEvents.
std::uint64_t total_recorded() noexcept;

/// Events dropped because more than kMaxRings threads recorded.
std::uint64_t total_dropped() noexcept;

/// Number of registered per-thread rings (monotonic; rings are leaked).
std::size_t ring_count() noexcept;

/// Merged copy of every ring's live slots, sorted by seq. Torn slots
/// (overwritten mid-read) are skipped. Not async-signal-safe (allocates);
/// use dump_to_fd from signal handlers.
std::vector<Event> snapshot();

/// One-line rendering ("seq=42 t=1.2ms op_end mxm v0=318 ..."), for tests
/// and the drain CLI. Not async-signal-safe.
std::string format_event(const Event& e);

/// ASYNC-SIGNAL-SAFE: write up to `max_per_ring` of the newest events of
/// every ring to `fd` as text, one event per line, newest last per ring.
/// Uses only write(2), atomic loads, and stack buffers.
void dump_to_fd(int fd, std::size_t max_per_ring) noexcept;

/// Monotonic ns since a flightrec-local anchor (leaf twin of obs::now_ns).
std::uint64_t now_ns() noexcept;

/// FNV-1a of a C string — the same hash the registry uses for dispatch
/// keys, exposed here so leaf record sites can tag events with key hashes
/// without linking the registry.
std::uint64_t fnv1a(const char* s) noexcept;

}  // namespace pygb::flightrec
