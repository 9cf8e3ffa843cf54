// pygb/config.hpp — every PYGB_*/GBTL_* environment knob: one constant
// table, one parser (the parse rules: docs/API.md §5). Constant data, so
// other translation units' static initialisers may read it. A leaf
// library: headers that JIT modules include never include it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pygb::config {

enum Kind : unsigned char { kU64, kBool, kEnum, kString };

struct Row {
  const char* name;
  Kind kind;
  const char* def;  ///< default text; nullptr: derived where read (doc)
  std::uint64_t lo, hi;  ///< kU64: inclusive bounds
  const char* doc;       ///< kEnum: the accepted tokens, '|'-separated
};

inline constexpr std::uint64_t kU64Max = ~std::uint64_t{0};
inline constexpr std::uint64_t kDayMs = 86'400'000;

inline constexpr Row kRows[] = {
    {"PYGB_JIT_MODE", kEnum, "auto", 0, 0, "auto|static|jit|interp"},
    {"PYGB_CACHE_DIR", kString, nullptr, 0, 0, "$TMPDIR/pygb_module_cache"},
    {"PYGB_CACHE_MAX_BYTES", kU64, "0", 0, kU64Max, "cache cap; 0 = none"},
    {"PYGB_CXX", kString, "g++", 0, 0, "JIT compiler command"},
    {"PYGB_INCLUDE_DIR", kString, nullptr, 0, 0, "the source tree's src/"},
    {"PYGB_JIT_TIMEOUT_MS", kU64, "30000", 0, kDayMs, "0 = no deadline"},
    {"PYGB_JIT_MEM_LIMIT_MB", kU64, "0", 0, 1 << 20, "RLIMIT_AS; 0 = none"},
    {"PYGB_JIT_RETRIES", kU64, "2", 0, 10, "retries of a transient failure"},
    {"PYGB_BREAKER_THRESHOLD", kU64, "3", 1, 1'000'000, "failures to open"},
    {"PYGB_BREAKER_TTL_MS", kU64, "15000", 1, kDayMs, "open until a probe"},
    {"PYGB_LOCK_TIMEOUT_MS", kU64, nullptr, 0, kDayMs, "compile deadline+10s"},
    {"GBTL_NUM_THREADS", kU64, "1", 1, 1024, "worker-pool size"},
    {"PYGB_BACKEND", kEnum, "scalar", 0, 0, "scalar|simd"},
    {"PYGB_FUSION", kBool, "on", 0, 0, "lazy op DAG"},
    {"PYGB_MEM_LIMIT_BYTES", kU64, "0", 0, kU64Max, "0 = no memory budget"},
    {"PYGB_OP_TIMEOUT_MS", kU64, "0", 0, kDayMs, "0 = no per-op deadline"},
    {"PYGB_TRACE", kString, "", 0, 0, "Chrome trace file"},
    {"PYGB_METRICS", kBool, "off", 0, 0, "metrics summary at exit"},
    {"PYGB_METRICS_JSON", kString, "", 0, 0, "metrics JSON export file"},
    {"PYGB_METRICS_PROM", kString, "", 0, 0, "Prometheus export file"},
    {"PYGB_METRICS_INTERVAL_MS", kU64, "0", 0, kDayMs, "0 = at exit only"},
    {"PYGB_CRASH_DIR", kString, "", 0, 0, "crash report directory"},
    {"PYGB_FAULTS", kString, "", 0, 0, "fault-injection spec"},
    {"PYGB_SERVE_MEM_HIGH_WATER_BYTES", kU64, nullptr, 0, kU64Max,
     "90% of PYGB_MEM_LIMIT_BYTES"},
    {"PYGB_SERVE_MAX_REQUEST_BYTES", kU64, "65536", 1, 1 << 30, "frame cap"},
    {"PYGB_SERVE_RETRY_AFTER_MS", kU64, "250", 0, kDayMs, "overload hint"},
    {"PYGB_SERVE_GRAPH_CACHE", kU64, "8", 1, 1 << 20, "graph LRU entries"},
    {"PYGB_SERVE_MAX_SCALE", kU64, "20", 0, 40, "largest graph: 2^scale"},
    {"PYGB_SERVE_ALLOW_FILES", kBool, "off", 0, 0, "file: graph specs"},
};

/// A table row named at compile time: an unknown name walks off the end
/// of kRows, which does not compile.
struct Knob {
  consteval Knob(const char* name) : row(kRows) {  // NOLINT: implicit
    while (std::string_view(row->name) != name) ++row;
  }
  const Row* row;
};

/// A malformed or out-of-range knob value: never read as the default.
struct BadValue : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// `text` as a value of `row`: a u64's number, a bool's 0/1 or an enum's
/// token index (a string row yields 0). Throws BadValue.
std::uint64_t parse(const Row& row, std::string_view text);

/// A u64, bool or enum knob: the environment's value, else the row's
/// default, else `fallback` (rows whose default the caller derives).
std::uint64_t get(Knob k, std::uint64_t fallback = 0);
inline bool on(Knob k) { return get(k) != 0; }

/// A string knob: the environment's value (empty counts as unset), else
/// the row's default, else `fallback`.
std::string str(Knob k, std::string fallback = {});

/// The text in effect for `row` — the environment's (checked by parse),
/// else the default, nullptr when derived where read — and its source.
const char* effective(const Row& row, bool& from_env);

/// For reads in static initialisers and noexcept functions, where a throw
/// has no caller to reach: print the error and abort.
[[noreturn]] void fatal(const BadValue& e) noexcept;

}  // namespace pygb::config
