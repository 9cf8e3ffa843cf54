#include "pygb/jit/registry.hpp"

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>

#include "pygb/config.hpp"
#include "pygb/faultinj.hpp"
#include "pygb/jit/cache.hpp"
#include "pygb/jit/codegen.hpp"
#include "pygb/jit/compiler.hpp"
#include "pygb/jit/loader.hpp"
#include "pygb/jit/subprocess.hpp"
#include "pygb/obs/flightrec.hpp"
#include "pygb/obs/obs.hpp"

namespace pygb::jit {

namespace fs = std::filesystem;

const char* to_string(Mode m) {
  switch (m) {
    case Mode::kAuto:
      return "auto";
    case Mode::kStatic:
      return "static";
    case Mode::kJit:
      return "jit";
    case Mode::kInterp:
      return "interp";
  }
  return "?";
}

std::uint64_t key_hash(const std::string& key) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// How a build failed, held as a value: the leader classifies its own
/// exception once, and each coalesced waiter throws an exception of its
/// own from it (Codon's executeSafe returns a JITResult the same way).
/// Sharing the leader's exception object through an exception_ptr let one
/// waiter read what() while another's rethrow cleanup freed it.
struct BuildFailure {
  enum class Kind : std::uint8_t { kNone, kTransient, kNoKernel, kOther };
  Kind kind = Kind::kNone;
  std::string message;

  static BuildFailure of(const std::exception_ptr& error) {
    if (!error) return {};
    try {
      std::rethrow_exception(error);
    } catch (const TransientJitError& e) {
      return {Kind::kTransient, e.what()};
    } catch (const NoKernelError& e) {
      return {Kind::kNoKernel, e.what()};
    } catch (const std::exception& e) {
      return {Kind::kOther, e.what()};
    } catch (...) {
      return {Kind::kOther, "unknown error"};
    }
  }

  [[noreturn]] void raise() const {
    switch (kind) {
      case Kind::kTransient:
        throw TransientJitError(message);
      case Kind::kNoKernel:
        throw NoKernelError(message);
      default:
        throw std::runtime_error(message);
    }
  }
};

/// A cold key currently being resolved. The owner thread compiles with no
/// registry lock held; same-key requesters wait here, other keys fly by.
struct Registry::InFlight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  KernelFn fn = nullptr;
  BuildFailure failure;
};

OpRequest StaticEntry::request() const {
  OpRequest req;
  req.func = func;
  req.c = c;
  req.a = a;
  req.b = b;
  req.a_transposed = a_transposed;
  req.b_transposed = b_transposed;
  req.mask = mask;
  if (semiring != nullptr) req.semiring = semiring();
  if (monoid != nullptr) req.monoid = monoid();
  if (binary_op != nullptr) req.binary_op = binary_op();
  if (unary_op != nullptr) req.unary_op = unary_op();
  if (accum != nullptr) req.accum = accum();
  return req;
}

namespace {

std::size_t static_slot_hash(std::string_view key) noexcept {
  return std::hash<std::string_view>{}(key);
}

}  // namespace

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Registry::Registry() {
  set_mode(static_cast<Mode>(config::get("PYGB_JIT_MODE")));
  cache_dir_ = config::str(
      "PYGB_CACHE_DIR",
      (fs::temp_directory_path() / "pygb_module_cache").string());
  clean_cache_litter(cache_dir_);

  std::size_t entries = 0;
  for (const auto& table : static_kernel_tables()) entries += table.size();
  if (entries >= 0xffff) throw std::logic_error("pygb: static table too big");
  static_arena_.reserve(entries * 48);  // keys average ~46 bytes
  static_keys_.reserve(entries);
  for (const auto& table : static_kernel_tables()) {
    for (const StaticEntry& e : table) {
      const std::string key = e.request().key();
      static_keys_.push_back({static_cast<std::uint32_t>(static_arena_.size()),
                              static_cast<std::uint32_t>(key.size()), e.fn});
      static_arena_ += key;
    }
  }
  std::size_t slots = 1;
  while (slots < 2 * entries) slots <<= 1;
  static_slots_.assign(slots, 0);
  for (std::size_t i = 0; i < static_keys_.size(); ++i) {
    const StaticKey& k = static_keys_[i];
    const std::string_view key(static_arena_.data() + k.offset, k.size);
    std::size_t slot = static_slot_hash(key) & (slots - 1);
    while (static_slots_[slot] != 0) slot = (slot + 1) & (slots - 1);
    static_slots_[slot] = static_cast<std::uint16_t>(i + 1);
  }
}

std::string Registry::cache_dir() const {
  std::lock_guard lock(mu_);
  return cache_dir_;
}

void Registry::set_cache_dir(const std::string& dir) {
  {
    std::lock_guard lock(mu_);
    cache_dir_ = dir;
  }
  clean_cache_litter(dir);
}

void Registry::clear_memory_cache() {
  {
    std::lock_guard lock(mu_);
    memory_cache_.clear();
  }
  breaker_.reset();
}

void Registry::clear_disk_cache() {
  {
    std::lock_guard lock(mu_);
    memory_cache_.clear();
    std::error_code ec;
    fs::remove_all(cache_dir_, ec);
  }
  breaker_.reset();
}

RegistryStats Registry::stats() const {
  RegistryStats s;
  s.lookups = obs::counter_value(obs::Counter::kRegistryLookups);
  s.static_hits = obs::counter_value(obs::Counter::kStaticHits);
  s.memory_hits = obs::counter_value(obs::Counter::kMemoryHits);
  s.disk_hits = obs::counter_value(obs::Counter::kDiskHits);
  s.compiles = obs::counter_value(obs::Counter::kCompiles);
  s.interp_dispatches =
      obs::counter_value(obs::Counter::kInterpDispatches);
  s.jit_fallbacks = obs::counter_value(obs::Counter::kJitFallbacks);
  s.cache_quarantines =
      obs::counter_value(obs::Counter::kCacheQuarantines);
  s.compile_seconds =
      static_cast<double>(obs::counter_value(obs::Counter::kCompileNanos)) *
      1e-9;
  s.jit_timeouts = obs::counter_value(obs::Counter::kJitTimeouts);
  s.jit_retries = obs::counter_value(obs::Counter::kJitRetries);
  s.waiter_timeouts = obs::counter_value(obs::Counter::kWaiterTimeouts);
  s.breaker_opens = obs::counter_value(obs::Counter::kBreakerOpens);
  s.breaker_probes = obs::counter_value(obs::Counter::kBreakerProbes);
  s.breaker_short_circuits =
      obs::counter_value(obs::Counter::kBreakerShortCircuits);
  s.lock_timeouts = obs::counter_value(obs::Counter::kLockTimeouts);
  return s;
}

void Registry::reset_stats() { obs::reset_counters(); }

std::size_t Registry::inflight_count() const {
  std::lock_guard lock(mu_);
  return inflight_.size();
}

std::size_t Registry::static_kernel_count() const {
  return static_keys_.size();
}

bool Registry::compiler_available() const {
  return pygb::jit::compiler_available();
}

KernelFn Registry::resolve_static(std::string_view key) const noexcept {
  // Backend axis: the backend rides at the end of the key, and a static
  // kernel serves every backend (the gbtl ops consult the thread's active
  // backend, installed by the dispatcher's BackendScope, at run time).
  if (const auto be = key.rfind("|be="); be != std::string_view::npos) {
    key = key.substr(0, be);
  }
  const std::size_t mask = static_slots_.size() - 1;
  for (std::size_t slot = static_slot_hash(key) & mask;;
       slot = (slot + 1) & mask) {
    const std::uint16_t i = static_slots_[slot];
    if (i == 0) return nullptr;
    const StaticKey& k = static_keys_[i - 1u];
    if (std::string_view(static_arena_.data() + k.offset, k.size) == key) {
      return k.fn;
    }
  }
}

KernelFn Registry::try_load_published(const std::string& so_path,
                                      const std::string& stamp) {
  std::error_code ec;
  if (!fs::exists(so_path, ec)) return nullptr;
  std::string err;
  if (KernelFn fn = load_kernel(so_path, &err, stamp)) return fn;
  // Truncated, corrupt, hash-colliding, or wrong-environment module: move
  // it aside (never silently run it, never retry it) and recompile.
  quarantine_module(so_path);
  obs::counter_add(obs::Counter::kCacheQuarantines);
  flightrec::record(flightrec::EventKind::kQuarantine, "verify");
  return nullptr;
}

KernelFn Registry::build_module(const OpRequest& req, const std::string& key,
                                const std::string& cache_dir,
                                const char** backend) {
  const std::string stamp = module_stamp(key);
  const std::string stem = module_stem(key);
  const fs::path dir(cache_dir);
  const fs::path so_path = dir / (stem + ".so");

  // Disk cache fast path (no lock): a previous process or run already
  // published a verified module.
  if (KernelFn fn = try_load_published(so_path.string(), stamp)) {
    obs::counter_add(obs::Counter::kDiskHits);
    *backend = "jit-disk";
    return fn;
  }

  std::error_code ec;
  fs::create_directories(dir, ec);

  // Cross-process coalescing: hold the per-stem advisory flock across
  // compile + publish. A process that lost the race blocks here and finds
  // the module already published when it gets the lock — one g++ run per
  // cold key machine-wide, not per process. The acquisition is BOUNDED
  // (lock_timeout_ms): a peer wedged while holding the lock costs us
  // coalescing, never liveness — on deadline we proceed with a private
  // compile (the pid-unique tmp name and atomic rename keep that safe).
  std::optional<FileLock> lock;
  if (!faultinj::check(faultinj::site::kFlock)) {
    lock.emplace((dir / (stem + ".lock")).string());
  } else {
    obs::counter_add(obs::Counter::kFaultsInjected);  // lock skipped
  }
  if (KernelFn fn = try_load_published(so_path.string(), stamp)) {
    obs::counter_add(obs::Counter::kDiskHits);
    *backend = "jit-disk";
    return fn;
  }

  // Generate the translation unit (with the embedded verification stamp).
  const fs::path src_path = dir / (stem + ".cpp");
  std::string source;
  SourceInfo srcinfo;
  {
    obs::Span span("jit.codegen");
    source = generate_source(req, stamp, &srcinfo);
    span.attr("key", key).attr("bytes",
                               static_cast<std::uint64_t>(source.size()));
  }
  obs::counter_add(obs::Counter::kGeneratedSourceBytes, source.size());
  obs::record_value("codegen_bytes", source.size());
  {
    std::ofstream src(src_path);
    src << source;
  }
  {
    // Attribution sidecar, published beside the source so crash reports
    // (and offline tooling) can resolve a module stem without recompiling
    // anything. Best effort — a missing sidecar degrades the report, not
    // the kernel.
    std::string map = "{\"schema\":\"pygb.srcmap\",\"schema_version\":1,";
    map += "\"stem\":";
    obs::detail::append_json_string(map, stem);
    map += ",\"func\":";
    obs::detail::append_json_string(map, srcinfo.func);
    map += ",\"key\":";
    obs::detail::append_json_string(map, srcinfo.key);
    char hash_buf[19];
    std::snprintf(hash_buf, sizeof hash_buf, "0x%016llx",
                  static_cast<unsigned long long>(srcinfo.key_hash));
    map += ",\"key_hash\":\"" + std::string(hash_buf) + "\"";
    map += ",\"kernel_line\":" + std::to_string(srcinfo.kernel_line);
    map += ",\"dsl_file\":";
    obs::detail::append_json_string(map, srcinfo.dsl_file);
    map += ",\"source\":";
    obs::detail::append_json_string(map, stem + ".cpp");
    map += "}\n";
    std::ofstream out(dir / (stem + ".srcmap"));
    out << map;
  }

  // Compile to a process-private temp name, then atomically rename(2) into
  // place — a concurrent reader can never dlopen a half-written module.
  // (No registry lock is held across any of this.)
  const fs::path tmp_path =
      dir / (stem + ".so." + std::to_string(::getpid()) + ".tmp");
  flightrec::record(flightrec::EventKind::kCompileBegin,
                    srcinfo.func.c_str(), source.size(), srcinfo.key_hash);
  const CompileResult cr =
      compile_module(src_path.string(), tmp_path.string());
  flightrec::record(flightrec::EventKind::kCompileEnd, srcinfo.func.c_str(),
                    static_cast<std::uint64_t>(cr.seconds * 1e9),
                    srcinfo.key_hash, cr.ok ? 1 : 0);
  obs::counter_add(obs::Counter::kCompiles);
  obs::counter_add(obs::Counter::kCompileNanos,
                   static_cast<std::uint64_t>(cr.seconds * 1e9));
  if (!cr.ok) {
    // A killed/failed compile must not litter the cache: the orphaned
    // .tmp goes (the .log stays, carrying the "killed after Xms" trailer
    // for diagnosis until the hygiene sweeper reaps it).
    fs::remove(tmp_path, ec);
    const std::string msg = "pygb: JIT compilation " +
                            std::string(cr.timed_out ? "timed out" : "failed") +
                            " for key '" + key + "':\n" + cr.log;
    if (cr.transient) throw TransientJitError(msg);
    throw NoKernelError(msg);
  }

  if (auto fault = faultinj::check(faultinj::site::kCachePublish)) {
    obs::counter_add(obs::Counter::kFaultsInjected);
    if (fault.action == faultinj::Action::kCorrupt) {
      // Garble the compiled bytes before publication: the stamp scan in
      // load_kernel must reject the module and quarantine it.
      std::ofstream garble(tmp_path, std::ios::binary | std::ios::trunc);
      garble << "pygb faultinj: corrupted module bytes";
    } else {
      fs::remove(tmp_path, ec);
      throw TransientJitError(
          "pygb: failed to publish compiled module for key '" + key +
          "': fault injected at cache_publish");
    }
  }

  fs::rename(tmp_path, so_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    // Publication is an environmental failure (full disk, permissions
    // race): the compile itself succeeded, so the key is not doomed.
    throw TransientJitError(
        "pygb: failed to publish compiled module for key '" + key +
        "': " + ec.message());
  }

  if (const std::uint64_t cap = cache_max_bytes(); cap != 0) {
    const std::uint64_t evicted = enforce_cache_cap(cache_dir, cap);
    if (evicted != 0) {
      obs::counter_add(obs::Counter::kCacheEvictedBytes, evicted);
    }
  }

  std::string err;
  KernelFn fn = load_kernel(so_path.string(), &err, stamp);
  if (fn == nullptr) {
    // The compile succeeded but the artifact won't load: corruption or a
    // dlopen resource failure, not a doomed key — quarantine (so the bad
    // file is never retried) and classify transient.
    quarantine_module(so_path.string());
    obs::counter_add(obs::Counter::kCacheQuarantines);
    flightrec::record(flightrec::EventKind::kQuarantine, "load");
    throw TransientJitError(
        "pygb: failed to load compiled module for key '" + key + "': " + err);
  }
  *backend = "jit-compile";
  return fn;
}

void Registry::warn_fallback_once(const char* what) {
  if (!fallback_warned_.exchange(true)) {
    std::fprintf(stderr,
                 "pygb: warning: JIT compilation unavailable at runtime; "
                 "degrading affected operations to the interpreter "
                 "(first failure: %s)\n",
                 what);
  }
}

KernelFn Registry::resolve_jit(const OpRequest& req, const std::string& key,
                               const char** backend) {
  std::shared_ptr<InFlight> flight;
  bool owner = false;
  std::string dir;
  {
    std::lock_guard lock(mu_);
    if (auto it = memory_cache_.find(key); it != memory_cache_.end()) {
      obs::counter_add(obs::Counter::kMemoryHits);
      *backend = "jit-memory";
      return it->second;
    }
    auto [it, inserted] = inflight_.try_emplace(key);
    if (inserted) it->second = std::make_shared<InFlight>();
    flight = it->second;
    owner = inserted;
    dir = cache_dir_;
  }

  if (!owner) {
    // Another thread is already resolving this exact key: wait for its
    // result instead of compiling twice. The wait is DEADLINE-BOUNDED —
    // the leader's compile is killed at PYGB_JIT_TIMEOUT_MS, so done
    // should arrive within that plus a grace margin; if it does not (the
    // leader is wedged outside the compile itself) the waiter abandons it
    // with a transient, classified error rather than blocking forever.
    obs::Span span("registry.wait");
    span.attr("key", key);
    std::unique_lock fl(flight->mu);
    const int timeout = jit_timeout_ms();
    bool done = true;
    if (timeout == 0) {
      flight->cv.wait(fl, [&] { return flight->done; });
    } else {
      done = flight->cv.wait_for(fl, std::chrono::milliseconds(timeout + 2000),
                                 [&] { return flight->done; });
    }
    if (!done) {
      obs::counter_add(obs::Counter::kWaiterTimeouts);
      throw TransientJitError(
          "pygb: timed out waiting for the in-flight JIT build of key '" +
          key + "' (leader exceeded PYGB_JIT_TIMEOUT_MS plus grace)");
    }
    if (flight->failure.kind != BuildFailure::Kind::kNone) {
      flight->failure.raise();
    }
    obs::counter_add(obs::Counter::kMemoryHits);
    *backend = "jit-wait";
    return flight->fn;
  }

  KernelFn fn = nullptr;
  std::exception_ptr error;
  const char* how = "jit-compile";
  try {
    fn = build_module(req, key, dir, &how);
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard lock(mu_);
    if (fn != nullptr) memory_cache_.emplace(key, fn);
    inflight_.erase(key);
  }
  {
    std::lock_guard fl(flight->mu);
    flight->fn = fn;
    flight->failure = BuildFailure::of(error);
    flight->done = true;
  }
  flight->cv.notify_all();
  // Breaker accounting: exactly one report per build attempt, by the
  // leader — waiters (even ones that timed out above) never report, or a
  // single hang would be counted N times.
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const TransientJitError& e) {
      breaker_.on_failure(key, /*transient=*/true, e.what());
      throw;
    } catch (const std::exception& e) {
      breaker_.on_failure(key, /*transient=*/false, e.what());
      throw;
    } catch (...) {
      breaker_.on_failure(key, /*transient=*/false, "unknown error");
      throw;
    }
  }
  breaker_.on_success(key);
  *backend = how;
  return fn;
}

KernelFn Registry::get(const OpRequest& req, ResolveInfo* info) {
  obs::counter_add(obs::Counter::kRegistryLookups);
  std::string key = req.key();
  const char* backend = "";
  KernelFn fn = nullptr;

  switch (mode()) {
    case Mode::kStatic: {
      fn = resolve_static(key);
      if (fn == nullptr) {
        throw NoKernelError(
            "pygb: no statically instantiated kernel for key '" + key +
            "' (the ahead-of-time combination space is intractable — see "
            "combination_space(); use jit/auto mode)");
      }
      obs::counter_add(obs::Counter::kStaticHits);
      backend = "static";
      break;
    }
    case Mode::kJit:
      fn = resolve_jit(req, key, &backend);
      break;
    case Mode::kInterp:
      obs::counter_add(obs::Counter::kInterpDispatches);
      backend = "interp";
      fn = interp_kernel();
      break;
    case Mode::kAuto: {
      if ((fn = resolve_static(key)) != nullptr) {
        obs::counter_add(obs::Counter::kStaticHits);
        backend = "static";
        break;
      }
      // Degradation ladder: static → jit → interp. A failed compile or
      // load must not abort a caller mid-algorithm in auto mode — the
      // interpreter computes the same result (slower), the circuit
      // breaker keeps later calls off a failing compile path (permanently
      // for deterministic compile errors, for a healing TTL for transient
      // ones), and the event is counted + warned once. kJit mode keeps
      // throwing. Exception: user-defined operators and fused chains are
      // compiled units the interpreter cannot execute, so degrading would
      // turn a compile error into a confusing "interpreter refuses" error
      // — for those the JIT failure propagates instead.
      const bool interp_can_serve = !req.chain && !req.has_user_op();
      if (compiler_available()) {
        const auto decision = breaker_.acquire(key);
        if (decision != CircuitBreaker::Decision::kShortCircuit) {
          try {
            fn = resolve_jit(req, key, &backend);
            // The resolve may have been satisfied without a build (memory
            // hit, coalesced wait): release any probe slot this caller
            // claimed. Redundant after a leader's own on_success.
            breaker_.on_success(key);
            break;
          } catch (const std::exception& e) {
            warn_fallback_once(e.what());
            if (!interp_can_serve) throw;
          }
        } else if (!interp_can_serve) {
          throw NoKernelError(
              "pygb: JIT circuit open for key '" + key + "' (" +
              breaker_.describe(key) +
              ") and the request cannot degrade to the interpreter");
        } else {
          // The short-circuit → interpreter path used to be silent; the
          // breaker's describe() carries the capped stderr tail of the
          // failure that opened it, which is the diagnostic a user needs.
          warn_fallback_once(
              ("JIT circuit open: " + breaker_.describe(key)).c_str());
        }
        obs::counter_add(obs::Counter::kJitFallbacks);
      }
      obs::counter_add(obs::Counter::kInterpDispatches);
      backend = "interp";
      fn = interp_kernel();
      break;
    }
  }
  if (fn == nullptr) throw std::logic_error("pygb: corrupt registry mode");
  if (info != nullptr) {
    info->backend = backend;
    info->key = std::move(key);
  }
  return fn;
}

std::uint64_t combination_space(const std::string& f) {
  // §V of the paper's accounting: 11 POD dtypes per container slot (mxm
  // takes four containers: two inputs, output, mask → 11^4); from the 17
  // binary operators there are 17 * 11^3 accumulator types (two input and
  // one output type each) and ~17*60 = 1020 semiring types; each input can
  // be transposed and the mask complemented. That yields the paper's
  // "roughly 6 trillion combinations of template parameters for mxm".
  constexpr std::uint64_t kD = 11;   // dtypes
  constexpr std::uint64_t kB = 17;   // binary operators
  constexpr std::uint64_t kU = 4;    // unary operators
  constexpr std::uint64_t kAccumTyped =
      kB * kD * kD * kD + 1;         // typed accumulators or none
  constexpr std::uint64_t kAccum = kB + 1;  // untyped: accumulator or none
  constexpr std::uint64_t kMaskM = 3;  // none / mask / complemented
  constexpr std::uint64_t kSemirings = 1020;  // paper's count
  if (f == func::kMxM) {
    return kD * kD * kD * kD * kAccumTyped * kSemirings * 4 * 2;
  }
  if (f == func::kMxV || f == func::kVxM) {
    return kD * kD * kD * kD * kAccumTyped * kSemirings * 2 * 2;
  }
  if (f == func::kEWiseAddMM || f == func::kEWiseMultMM) {
    return kD * kD * kD * kD * kB * kAccum * 4 * kMaskM;
  }
  if (f == func::kEWiseAddVV || f == func::kEWiseMultVV) {
    return kD * kD * kD * kD * kB * kAccum * kMaskM;
  }
  if (f == func::kApplyM) {
    return kD * kD * kD * (kU + kB) * kAccum * 2 * kMaskM;
  }
  if (f == func::kApplyV) {
    return kD * kD * kD * (kU + kB) * kAccum * kMaskM;
  }
  if (f == func::kReduceMS || f == func::kReduceVS) {
    return kD * kD * kB * kAccum;
  }
  if (f == func::kReduceMV) {
    return kD * kD * kD * kB * kAccum * 2 * kMaskM;
  }
  // assign/extract/transpose: dtypes x accum x mask.
  return kD * kD * kD * kAccum * kMaskM;
}

}  // namespace pygb::jit
