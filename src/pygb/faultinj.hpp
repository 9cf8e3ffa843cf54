// pygb/faultinj.hpp — deterministic, env-gated fault injection for the
// Fig. 9 dispatch pipeline's chaos tests.
//
// Production code is littered with failure modes that are nearly
// impossible to reproduce on demand: a hung compiler, a dlopen that fails
// after a successful compile, a cache publish that loses the rename race,
// a worker-pool submit that throws. This module makes every one of them
// reproducible: named injection SITES are threaded through the compiler
// subprocess, the module loader, the cache publish/verify path, and the
// pool submit path, and an environment spec decides — deterministically —
// which sites fire and how.
//
// Spec syntax (PYGB_FAULTS, or pygb_cli --faults):
//
//   PYGB_FAULTS="compile:hang:p=1,dlopen:fail:p=0.5,seed=42"
//
//   rule  := <site> ':' <action> [':' 'p=' <probability>] [':' 'n=' <count>]
//   spec  := rule (',' rule)* [',' 'seed=' <uint64>]
//
//   sites    compile | dlopen | cache_verify | cache_publish | flock |
//            pool_submit | governor | kernel_crash (site::kAll; any other
//            name is rejected)
//   actions  hang  — the compiler child parks forever (timeout path)
//            fail  — the site reports failure (exit 1 / nullptr / throw)
//            slow  — the compiler child sleeps ~2s before exec'ing
//            corrupt — published bytes are garbled (verify/quarantine path)
//   p=X      firing probability in [0,1] (default 1). Draws come from a
//            splitmix64 stream seeded by `seed` (default 0) and a global
//            draw counter, so a given (spec, call sequence) always fires
//            the same way — chaos runs are replayable.
//   n=K      fire at most K times, then the rule goes dormant (lets a
//            "transient" failure heal mid-run).
//
// Cost discipline: the hooks are compiled in ALWAYS (chaos coverage must
// test the binary that ships), but when no spec is configured every site
// reduces to one relaxed atomic load and a branch — the same bargain as
// pygb::obs tracing.
//
// Layering: this is a leaf module with no dependencies on the rest of
// pygb, so the gbtl worker pool (which must not link libpygb) can carry
// the pool_submit site too.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace pygb::faultinj {

enum class Action : std::uint8_t {
  kNone,
  kHang,
  kFail,
  kSlow,
  kCorrupt,
};

const char* to_string(Action a) noexcept;

/// Canonical site names (call sites pass these literals; configure()
/// rejects a rule whose site is not in kAll).
namespace site {
inline constexpr const char* kCompile = "compile";
inline constexpr const char* kDlopen = "dlopen";
inline constexpr const char* kCacheVerify = "cache_verify";
inline constexpr const char* kCachePublish = "cache_publish";
inline constexpr const char* kFlock = "flock";
inline constexpr const char* kPoolSubmit = "pool_submit";
/// Governor checkpoints (gbtl row loops, pool chunk boundaries, algorithm
/// iterations): `fail` = injected budget exhaustion (ResourceExhausted),
/// `hang`/`slow`/`corrupt` = injected deadline fire (DeadlineExceeded).
/// Combine with n=K to fire at exactly the Kth checkpoint.
inline constexpr const char* kGovernor = "governor";
/// Entry guard of every generated JIT kernel (pygb::jit::kernel_entry_guard,
/// reached through the injected PoolApi): any action dereferences null FROM
/// MODULE CODE — a real SIGSEGV inside the dlopen'd mapping, for the
/// crash-attribution pipeline (docs/OBSERVABILITY.md).
inline constexpr const char* kKernelCrash = "kernel_crash";
/// Every site a call site visits: the names a spec may arm.
inline constexpr const char* kAll[] = {kCompile,      kDlopen,   kCacheVerify,
                                       kCachePublish, kFlock,    kPoolSubmit,
                                       kGovernor,     kKernelCrash};
}  // namespace site

/// The verdict for one site visit. Evaluates false when nothing fires.
struct Decision {
  Action action = Action::kNone;
  explicit operator bool() const noexcept { return action != Action::kNone; }
};

namespace detail {
extern std::atomic<bool> g_armed;
Decision check_slow(const char* site) noexcept;
}  // namespace detail

/// True when a fault spec is configured (one relaxed load).
inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Visit an injection site: returns what (if anything) should fail here.
/// This is THE hook call sites use; disarmed cost is a load + branch.
inline Decision check(const char* site) noexcept {
  if (!armed()) [[likely]] {
    return {};
  }
  return detail::check_slow(site);
}

/// Install a fault spec ("" disarms). Throws std::invalid_argument on a
/// malformed spec — a chaos run with a typo'd spec silently testing
/// nothing is worse than failing fast.
void configure(const std::string& spec);

/// The currently armed spec ("" when disarmed).
std::string current_spec();

/// Total faults fired since arming (any site). configure() resets it.
std::uint64_t fired_count() noexcept;

/// Bounded, replayable retry jitter (docs/ROBUSTNESS.md): a uniform draw
/// in [0,1) that is a pure function of (stream, index) and the jitter
/// seed. While a fault spec is armed, its `seed=N` anchors the draw — so a
/// chaos run replays its backoff schedule bit-identically; disarmed, the
/// seed is per-process entropy captured once. Callers spread correlated
/// retries (JIT compile backoff, breaker half-open probes) by keying
/// `stream` on what they retry and `index` on the attempt number, so N
/// server threads hammering the same cold key don't wake in lockstep.
double jitter_unit(std::uint64_t stream, std::uint64_t index) noexcept;

}  // namespace pygb::faultinj
