// pygb/jit/cache.hpp — disk-tier management for the Fig. 9 module cache.
//
// The disk cache is shared state: many processes (and many runs, across
// compiler upgrades and flag changes) read and write one directory. This
// header owns everything that makes that safe:
//
//   * the cache STAMP — a string identifying the cache schema, the
//     compiler, the compile flags, and the pygb version. It is hashed into
//     every module filename and embedded verbatim in every generated module
//     (the `pygb_module_stamp` symbol), so a stale directory or a 64-bit
//     key-hash collision can never silently return the wrong kernel:
//     load-time verification compares the embedded stamp+key against what
//     the requester expects.
//   * per-stem advisory FILE LOCKS (flock) so two *processes* racing on the
//     same cold key coalesce onto one g++ invocation (PR 1's in-flight
//     records handle threads within a process).
//   * QUARANTINE for modules that fail to load or fail verification: the
//     file is renamed to `<name>.bad` (kept for inspection, never retried)
//     and the caller recompiles.
//   * HYGIENE — size-capped LRU-by-mtime eviction (PYGB_CACHE_MAX_BYTES)
//     and startup removal of stale `.tmp.so` / `.log` litter left by
//     crashed compiles.
//
// Layout of a cache directory (see docs/CACHE.md):
//   pygb_<keyhash>_<stamphash>.cpp          generated translation unit
//   pygb_<keyhash>_<stamphash>.srcmap       attribution sidecar (JSON: key,
//                                           func, kernel line, #line file)
//   pygb_<keyhash>_<stamphash>.so           published module (atomic rename)
//   pygb_<keyhash>_<stamphash>.so.<pid>.tmp in-progress compile output
//   pygb_<keyhash>_<stamphash>.so.bad       quarantined corrupt module
//   pygb_<keyhash>_<stamphash>.lock         advisory flock file
//   pygb_<keyhash>_<stamphash>.so.log       diagnostics of a FAILED compile
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace pygb::jit {

/// Bumped whenever the generated-module ABI changes (KernelArgs layout,
/// stamp symbol format, filename scheme). v3: modules carry the
/// pygb_module_set_pool worker-pool injection export (gbtl/detail/pool.hpp).
/// v4: PoolApi v2 — governor checkpoint/mem_reserve/mem_release entries
/// (pygb/governor.hpp); v3 modules would reject the v2 table and silently
/// run sequential and ungoverned, so they are retired wholesale.
/// v5: crash attribution — modules export pygb_module_key/func/kernel_line,
/// kernel statements are #line-mapped onto a virtual DSL file, the entry
/// guard routes the kernel_crash fault site and flight notes through
/// PoolApi v3, and a `.srcmap` sidecar is published next to the source.
/// v6: backend axis — gbtl::Matrix grows a cached-transpose slot (ABI:
/// sizeof changed across the module boundary) and generated bodies open
/// with a baked gbtl::detail::BackendScope; pre-axis modules would run
/// the old container layout, so they are retired wholesale.
/// v7: direction-optimization amortization — gbtl::Matrix grows the
/// pull-interest counter (transpose_want_; sizeof changed again), so v6
/// modules see a stale container layout.
/// v8: the stamp carries a digest of the headers generated modules
/// compile against (`|headers=`), which also names the build-time PCH
/// directory; v7 stamps said nothing about header contents.
/// v9: thin modules — the operator-carrying single-op families include
/// pygb/jit/thin.hpp, compile only their operator cores and call the
/// dtype-only drivers through PoolApi v5; a v8 module would run the old
/// whole-op bodies against a v5 table it rejects.
/// v10: assign/extract/transpose modules are thin too, calling the
/// driver table v2 slots; a v9 module of those families compiled the whole
/// op against glue.hpp.
inline constexpr int kCacheSchemaVersion = 10;

/// Include subdirectories whose `*.hpp` files header_digest() covers:
/// everything pygb/jit/glue.hpp and pygb/jit/thin.hpp (and so every
/// generated module and both PCHs) can include from the project.
inline constexpr const char* kStampedHeaderDirs[] = {"pygb", "gbtl",
                                                     "algorithms"};

/// The full environment stamp: schema version, compiler identity and
/// flags, include directory and the digest of its headers. Example:
/// "pygb-cache-v8|g++ (GCC) 12.2.0|-std=c++20 -O2 ...|include=/src|
/// headers=0123456789abcdef". The digest is FNV-1a over every `*.hpp`
/// under `<include>/{pygb,gbtl,algorithms}` in sorted relative-path
/// order, paths and contents both, read through a fixed-size buffer
/// (nothing else in the tree, such as a `.gch`, is read). The compiler
/// probe and the digest are computed once per process (per compiler
/// command / include dir).
std::string cache_stamp();

/// Drop the per-process header digests, so the next cache_stamp() hashes
/// again — what a new process would see. For tests that edit headers in
/// place.
void forget_header_digests();

/// The precompiled module headers, relative to a PCH directory: a
/// directory placed first on `-I` makes `#include "pygb/jit/glue.hpp"`
/// (fused chains, algorithms, assign/extract/transpose) and
/// `#include "pygb/jit/thin.hpp"` (every other single op) find them.
inline constexpr const char* kPchFile = "pygb/jit/glue.hpp.gch";
inline constexpr const char* kThinPchFile = "pygb/jit/thin.hpp.gch";
inline constexpr const char* kPchFiles[] = {kThinPchFile, kPchFile};

/// Root of the build-time PCH tree, `<build>/jit_pch` (baked in at build
/// time; "" when the library was built without one).
std::string jit_pch_root();

/// `<jit_pch_root()>/<hex64(key_hash(cache_stamp()))>`: where the PCH for
/// this process's stamp lives, whether or not it was built. A header
/// edit, compiler change or flag change moves it, so a stale PCH is never
/// found by name. Built by the pygb_build_pch tool (src/CMakeLists.txt).
std::string jit_pch_dir();

/// jit_pch_dir() when both kPchFiles exist, else "" (compile without).
std::string active_pch_dir();

/// The stamp a generated module must carry to satisfy `key`: the cache
/// stamp plus the full dispatch key (so hash collisions are caught even
/// though filenames only carry 64-bit hashes).
std::string module_stamp(const std::string& key);

/// Filename stem for `key` under the current stamp:
/// "pygb_<hex keyhash>_<hex stamphash>".
std::string module_stem(const std::string& key);

/// Name of the exported verification symbol in generated modules.
inline constexpr const char* kStampSymbol = "pygb_module_stamp";

/// Prefix baked into the stamp payload so verification can locate it by
/// scanning the module file's bytes BEFORE dlopen — an unverified module
/// must never get to run its initializers, and glibc caches dlopen'd
/// objects by path name, so a bad file must be rejected without loading.
inline constexpr const char* kStampMarker = "PYGB-STAMP:";

/// PYGB_CACHE_MAX_BYTES (0 = unlimited, the default).
std::uint64_t cache_max_bytes();

/// Rename a failing module to `<path>.bad` (best effort; falls back to
/// removal). Returns true if the file is no longer at `path`.
bool quarantine_module(const std::string& so_path);

/// Delete stale compile litter — `.tmp` outputs, `.log` diagnostics, and
/// `.bad` quarantines older than kCacheHygieneHorizon (young litter may
/// belong to a live compile in another process, and fresh quarantines are
/// kept for inspection). Returns the number of files removed. Called on registry
/// startup and whenever the cache directory changes.
std::size_t clean_cache_litter(const std::string& dir);

/// The litter age beyond which clean_cache_litter() reaps.
inline constexpr std::chrono::hours kCacheHygieneHorizon{1};

/// Evict least-recently-touched modules until the directory's total size
/// is within `max_bytes`. Eviction takes the FULL stem family — the `.so`
/// plus every `<stem>.*` sidecar (`.cpp`, `.srcmap`, `.lock`, `.so.log`,
/// `.so.bad`, orphaned `.so.<pid>.tmp`) — so repeated eviction cycles
/// cannot strand unevictable litter under the cap. The newest module is
/// never evicted (the one just published must survive). Returns bytes
/// evicted. No-op when max_bytes == 0.
std::uint64_t enforce_cache_cap(const std::string& dir,
                                std::uint64_t max_bytes);

/// Aggregate numbers for `pygb_cli --cache-info`.
struct CacheInfo {
  std::uint64_t modules = 0;      ///< published .so files
  std::uint64_t total_bytes = 0;  ///< all files in the directory
  std::uint64_t quarantined = 0;  ///< .bad files
  std::uint64_t logs = 0;         ///< failed-compile .log files
};
CacheInfo cache_info(const std::string& dir);

/// PYGB_LOCK_TIMEOUT_MS — how long FileLock polls for the advisory lock
/// before giving up (default: the JIT compile deadline plus 10s, since a
/// healthy holder legitimately keeps it for one full compile; 0 = wait
/// forever, the legacy behaviour).
int lock_timeout_ms();

/// RAII advisory lock on `path` (flock; the file is created if absent and
/// left in place — flock metadata lives in the kernel, not the file).
///
/// Acquisition is BOUNDED: LOCK_EX|LOCK_NB in a backoff loop until
/// `timeout_ms` expires. A process that crashed while holding the lock
/// releases it automatically (flock dies with the fd), but a LIVE process
/// wedged mid-compile would otherwise block every peer forever — on
/// deadline the lock is simply not held and the caller proceeds with a
/// private, uncoalesced compile (correctness never depends on the lock;
/// only compile coalescing does). The same degradation applies when the
/// lock file cannot be opened at all (read-only cache dir).
class FileLock {
 public:
  explicit FileLock(const std::string& path);
  FileLock(const std::string& path, int timeout_ms);
  ~FileLock();
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  bool held() const noexcept { return held_; }
  /// True when the lock was given up on at the deadline (as opposed to
  /// an unopenable lock file) — the caller may want to count this.
  bool timed_out() const noexcept { return timed_out_; }

 private:
  int fd_ = -1;
  bool held_ = false;
  bool timed_out_ = false;
};

}  // namespace pygb::jit
