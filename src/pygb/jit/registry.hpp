// pygb/jit/registry.hpp — the module cache of Fig. 9's get_module():
// canonical key → kernel, checked in memory first, then on disk, with a
// g++ invocation on a miss. Three backends provide kernels:
//
//   * static — templates instantiated into this binary at build time (a
//     curated set; §V of the paper explains why covering every combination
//     ahead of time is infeasible — see static_combination_space()).
//   * jit    — source generated from the request, compiled to a shared
//     object, dlopen'd, and cached in memory and on disk.
//   * interp — a single generic kernel interpreting the request over
//     double-staged copies (the "union type" design the paper rejected;
//     kept as the always-available fallback and as an ablation subject).
//
// Mode selection: PYGB_JIT_MODE = auto | static | jit | interp
// (auto = static, then jit when a compiler is available, then interp).
//
// Concurrency: the registry mutex guards only the in-memory maps, never a
// compile. A cold key registers an in-flight record and compiles outside
// the lock; concurrent requests for the SAME key wait on that record,
// while requests for other keys (including memory-cache hits) proceed
// immediately. The wait is DEADLINE-BOUNDED (PYGB_JIT_TIMEOUT_MS plus a
// grace margin): a waiter whose leader hangs falls back to the
// interpreter (kAuto) or fails with a classified TransientJitError
// instead of blocking forever. Statistics live in pygb::obs relaxed
// atomic counters — the RegistryStats struct is a snapshot view of those.
//
// Robustness (docs/ROBUSTNESS.md): compiles run in a sandboxed subprocess
// (argv exec, wall-clock deadline with SIGTERM→SIGKILL escalation, child
// rlimits, transient-failure retry — pygb/jit/subprocess.hpp), and a
// per-key circuit breaker (pygb/jit/breaker.hpp) stops repeatedly-failing
// keys from taxing every caller: permanent compile errors open it
// immediately, transient ones after a threshold, with a half-open probe
// to heal.
//
// The disk tier is hardened for shared, long-lived deployments (see
// pygb/jit/cache.hpp and docs/CACHE.md): modules are compiled to a
// process-private temp name and atomically rename(2)d into place, a
// per-stem flock coalesces concurrent compiles across PROCESSES, every
// module embeds a verification stamp checked at load time (corrupt or
// wrong-environment files are quarantined and recompiled), and auto mode
// degrades to the interpreter instead of throwing when compilation is
// broken at runtime.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pygb/jit/breaker.hpp"
#include "pygb/jit/module_key.hpp"

namespace pygb::jit {

enum class Mode : std::uint8_t { kAuto, kStatic, kJit, kInterp };

const char* to_string(Mode m);
Mode parse_mode(const std::string& name);

/// Raised when a backend cannot provide a kernel (e.g. static-only mode
/// with an unregistered combination — the paper's motivating failure).
class NoKernelError : public std::runtime_error {
 public:
  explicit NoKernelError(const std::string& msg) : std::runtime_error(msg) {}
};

/// A JIT failure that is environmental rather than deterministic — a
/// compile killed at the PYGB_JIT_TIMEOUT_MS deadline, an OOM-killed or
/// spawn-failed compiler child, a coalesced waiter abandoning a hung
/// leader. The key is NOT doomed: the circuit breaker counts these toward
/// its consecutive-failure threshold (and heals through a half-open
/// probe) instead of negative-caching the key forever.
class TransientJitError : public NoKernelError {
 public:
  using NoKernelError::NoKernelError;
};

/// Snapshot of the obs counters in the registry's historical shape.
struct RegistryStats {
  std::size_t lookups = 0;
  std::size_t static_hits = 0;
  std::size_t memory_hits = 0;      ///< previously dlopen'd JIT module
  std::size_t disk_hits = 0;        ///< .so found in the cache directory
  std::size_t compiles = 0;         ///< g++ invocations
  std::size_t interp_dispatches = 0;
  std::size_t jit_fallbacks = 0;    ///< auto-mode degradations to interp
  std::size_t cache_quarantines = 0;  ///< cached modules failing load/verify
  double compile_seconds = 0.0;     ///< total wall time inside g++
  std::size_t jit_timeouts = 0;     ///< compiles killed at the deadline
  std::size_t jit_retries = 0;      ///< transient compile failures retried
  std::size_t waiter_timeouts = 0;  ///< waiters abandoning a hung leader
  std::size_t breaker_opens = 0;    ///< circuit transitions to open
  std::size_t breaker_probes = 0;   ///< half-open probe builds granted
  std::size_t breaker_short_circuits = 0;  ///< fast-failed JIT requests
  std::size_t lock_timeouts = 0;    ///< flock deadline → private compile
};

/// One build-time-instantiated kernel (static backend): the request fields
/// its dispatch key is made of, with operators as pointers to the built-in
/// descriptor factories (nullptr = absent), and the kernel. Plain constant
/// data: the tables in static_kernels*.cpp cost no code and no heap until
/// the registry builds their keys.
struct StaticEntry {
  const char* func = nullptr;  ///< one of the func:: names
  KernelFn fn = nullptr;
  Semiring (*semiring)() = nullptr;
  Monoid (*monoid)() = nullptr;
  BinaryOp (*binary_op)() = nullptr;
  UnaryOp (*unary_op)() = nullptr;
  BinaryOp (*accum)() = nullptr;
  DType c = DType::kFP64;
  std::optional<DType> a;
  std::optional<DType> b;
  MaskKind mask = MaskKind::kNone;
  bool a_transposed = false;
  bool b_transposed = false;

  /// The scalar-backend request this kernel serves.
  OpRequest request() const;
};

/// The build-time kernel tables, one constant array per translation unit
/// (static_kernels*.cpp). Every entry has its own dispatch key.
std::span<const std::span<const StaticEntry>> static_kernel_tables();

/// How a lookup was satisfied — filled for observability when the caller
/// passes a ResolveInfo to Registry::get().
struct ResolveInfo {
  const char* backend = "";  ///< static | jit-memory | jit-disk |
                             ///< jit-compile | jit-wait | interp
  std::string key;           ///< the canonical dispatch key
};

class Registry {
 public:
  /// Process-wide instance; mode and cache dir initialized from the
  /// PYGB_JIT_MODE / PYGB_CACHE_DIR environment variables.
  static Registry& instance();

  /// Resolve a kernel for the request, compiling if necessary. `info`
  /// (optional) receives the backend chosen and the dispatch key.
  KernelFn get(const OpRequest& req, ResolveInfo* info = nullptr);

  Mode mode() const noexcept {
    return mode_.load(std::memory_order_relaxed);
  }
  void set_mode(Mode m) noexcept {
    mode_.store(m, std::memory_order_relaxed);
  }

  std::string cache_dir() const;
  void set_cache_dir(const std::string& dir);

  /// Drop in-memory JIT handles (disk cache untouched). For benchmarks
  /// that measure cold-vs-warm dispatch.
  void clear_memory_cache();
  /// Delete the on-disk module cache as well.
  void clear_disk_cache();

  RegistryStats stats() const;
  void reset_stats();

  /// Number of JIT compiles currently running (observability / tests).
  std::size_t inflight_count() const;

  std::size_t static_kernel_count() const;
  bool compiler_available() const;

  /// The JIT circuit breaker (per-key failure gating; see breaker.hpp).
  /// Exposed for observability and tests; resolution consults it
  /// internally.
  CircuitBreaker& breaker() noexcept { return breaker_; }

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  struct InFlight;

  Registry();

  /// The static kernel for `key`, whatever its `|be=` backend suffix (a
  /// static kernel serves every backend: gbtl ops consult the thread's
  /// active backend at run time), or nullptr.
  KernelFn resolve_static(std::string_view key) const noexcept;
  KernelFn resolve_jit(const OpRequest& req, const std::string& key,
                       const char** backend);
  /// Disk probe, codegen, g++, dlopen — runs with NO registry lock held.
  KernelFn build_module(const OpRequest& req, const std::string& key,
                        const std::string& cache_dir, const char** backend);
  /// Load an already-published module with stamp verification; a file
  /// that fails is quarantined (never retried) and nullptr returned.
  KernelFn try_load_published(const std::string& so_path,
                              const std::string& stamp);
  /// Auto-mode degradation bookkeeping: warn once per process.
  void warn_fallback_once(const char* what);

  /// Guards memory_cache_, inflight_, and cache_dir_ — never held across
  /// a compile.
  mutable std::mutex mu_;
  std::atomic<Mode> mode_{Mode::kAuto};
  std::atomic<bool> fallback_warned_{false};
  std::string cache_dir_;
  // The static backend, immutable once built (no lock): every entry's key
  // back to back in one arena, and an open-addressed index over them.
  struct StaticKey {
    std::uint32_t offset;  ///< into static_arena_
    std::uint32_t size;
    KernelFn fn;
  };
  std::string static_arena_;
  std::vector<StaticKey> static_keys_;
  /// static_keys_ index + 1 per slot; 0 = empty.
  std::vector<std::uint16_t> static_slots_;
  std::unordered_map<std::string, KernelFn> memory_cache_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  /// Per-key build-failure gating (supersedes the old failed_jit_keys_
  /// permanent negative cache): permanent failures open the circuit
  /// immediately, transient ones open it after a threshold and heal
  /// through a half-open probe. Reset with the caches.
  CircuitBreaker breaker_;
};

/// Defined in interp_kernels.cpp: the generic interpreting kernel.
KernelFn interp_kernel();

/// The §V combinatorics: how many distinct (dtype, operator, transpose,
/// mask) combinations exist for the given operation — the number that makes
/// ahead-of-time instantiation infeasible and motivates the JIT.
std::uint64_t combination_space(const std::string& func);

/// Stable 64-bit FNV-1a hash of a dispatch key (module file names).
std::uint64_t key_hash(const std::string& key);

}  // namespace pygb::jit
