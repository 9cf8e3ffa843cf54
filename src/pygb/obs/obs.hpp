// pygb/obs/obs.hpp — structured observability for the Fig. 9 dispatch
// pipeline: spans, counters, and latency histograms, with Chrome-trace and
// metrics exporters.
//
// Three facilities, each independently switchable:
//
//   * spans   — RAII `Span` objects emit one complete trace event
//               (begin timestamp, duration, thread id, key/value attrs)
//               into a per-thread buffer. Export with write_chrome_trace()
//               and open the file in Perfetto / chrome://tracing.
//   * counters— always-on relaxed atomics for registry traffic (lookups,
//               cache hits, compiles, …). These supersede the old
//               mutex-guarded RegistryStats as the single source of truth;
//               Registry::stats() is now a snapshot of these.
//   * histograms — log₂-bucketed value distributions (kernel wall time by
//               (func, backend), compile time, generated-source bytes),
//               sharded per name behind a thread-local pointer cache and
//               updated with relaxed atomics only.
//
// Overhead discipline: every hook site first performs a single relaxed
// atomic load + branch (tracing_enabled() / metrics_enabled()); with both
// facilities off, nothing else runs and nothing allocates. Counters are the
// one exception (one relaxed fetch_add per registry lookup — cheaper than
// the mutex they replaced).
//
// Activation: programmatic (set_tracing_enabled / set_metrics_enabled) or
// via environment — PYGB_TRACE=<file> enables tracing and writes a Chrome
// trace at process exit; PYGB_METRICS=1 enables histograms and dumps a
// summary to stderr at exit. `pygb_cli --trace <file> / --stats` wrap the
// same switches.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pygb::obs {

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_tracing;
extern std::atomic<bool> g_metrics;
void append_json_string(std::string& out, std::string_view s);
}  // namespace detail

/// The single relaxed-atomic branch every span hook performs when idle.
inline bool tracing_enabled() noexcept {
  return detail::g_tracing.load(std::memory_order_relaxed);
}
/// Same, for histogram recording sites.
inline bool metrics_enabled() noexcept {
  return detail::g_metrics.load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool on) noexcept;
void set_metrics_enabled(bool on) noexcept;

/// Read PYGB_TRACE / PYGB_METRICS once and arrange the at-exit export.
/// Called automatically from a static initializer; idempotent.
void init_from_env();

/// Monotonic nanoseconds since an arbitrary process-local anchor.
std::uint64_t now_ns();

// ---------------------------------------------------------------------------
// Counters (always on; the registry's source of truth)
// ---------------------------------------------------------------------------

enum class Counter : unsigned {
  kRegistryLookups,
  kStaticHits,
  kMemoryHits,   ///< previously dlopen'd JIT module (incl. in-flight waits)
  kDiskHits,     ///< .so found in the cache directory
  kCompiles,     ///< g++ invocations
  kInterpDispatches,
  kCompileNanos,          ///< total wall time inside g++
  kGeneratedSourceBytes,  ///< bytes of JIT source emitted
  kTraceEventsDropped,    ///< events discarded at the per-thread buffer cap
  kJitFallbacks,          ///< auto-mode JIT failures degraded to interp
  kCacheQuarantines,      ///< cached .so files failing load/verification
  kCacheEvictedBytes,     ///< bytes removed by PYGB_CACHE_MAX_BYTES eviction
  kJitTimeouts,           ///< compiler children killed at the deadline
  kJitKills,              ///< SIGKILL escalations (child ignored SIGTERM)
  kJitRetries,            ///< transient compile failures retried
  kWaiterTimeouts,        ///< coalesced waiters abandoning a hung leader
  kBreakerOpens,          ///< circuit transitions closed/half-open → open
  kBreakerProbes,         ///< half-open probe compiles attempted
  kBreakerShortCircuits,  ///< requests bounced straight to the fallback
  kLockTimeouts,          ///< flock deadline → private uncoalesced compile
  kFaultsInjected,        ///< pygb::faultinj decisions that fired
  // Governor (pygb::governor; mirrored from its leaf-module atomics — see
  // the sync in obs.cpp — so counter_value()/snapshots stay coherent).
  kOpsCancelled,          ///< operations aborted by Governor::cancel()
  kOpsDeadlineExceeded,   ///< operations aborted at PYGB_OP_TIMEOUT_MS
  kMemBudgetRejections,   ///< charges refused at PYGB_MEM_LIMIT_BYTES
  kMemPeakBytes,          ///< high-water mark of governed memory charges
  // Postmortem half (this PR): mirrored from pygb::flightrec / written by
  // the crash handler (counter_add is a lock-free fetch_add, AS-safe).
  kFlightEvents,          ///< events recorded by the flight recorder
  kCrashReports,          ///< crash reports written by pygb::crash
  // Lazy op DAG / fusion planner (pygb::fusion, pygb/plan.cpp).
  kFusionDeferred,        ///< assignments recorded on a lazy DAG
  kFusionFlushes,         ///< planner flushes (materialization points)
  kFusionChains,          ///< fused chains dispatched by the planner
  kFusionFusedStatements, ///< deferred ops executed inside fused chains
  kFusionEagerOps,        ///< deferred ops replayed eagerly at flush
  kFusionDce,             ///< dead intermediate writes eliminated
  // Backend axis (gbtl/ops/mxv.hpp): direction-optimized mxv decisions,
  // mirrored from the gbtl pool's flight-note routing layer so choices
  // made inside dlopen'd modules are counted too.
  kMxvPushDecisions,      ///< simd mxv/vxm chose the push (scatter) kernel
  kMxvPullDecisions,      ///< simd mxv/vxm pulled over the cached transpose
  // pygb_serve (src/serve, docs/SERVING.md): the server's load-shedding
  // ledger. Every accepted request lands in exactly one of
  // admitted-and-finished / rejected / cancelled, so dashboards can prove
  // "degraded, never died" from these alone.
  kServeAdmitted,         ///< requests admitted past admission control
  kServeRejected,         ///< typed Overloaded/shutting-down rejections
  kServeCancelled,        ///< requests cancelled (disconnect or drain cap)
  kServeDisconnects,      ///< client connections dropped mid-request
  kServeDrained,          ///< in-flight requests completed during drain
  kCount_,
};
inline constexpr unsigned kCounterCount =
    static_cast<unsigned>(Counter::kCount_);

namespace detail {
extern std::atomic<std::uint64_t> g_counters[kCounterCount];
}  // namespace detail

inline void counter_add(Counter c, std::uint64_t n = 1) noexcept {
  detail::g_counters[static_cast<unsigned>(c)].fetch_add(
      n, std::memory_order_relaxed);
}
std::uint64_t counter_value(Counter c) noexcept;
const char* counter_name(Counter c) noexcept;
void reset_counters() noexcept;

// ---------------------------------------------------------------------------
// Histograms (metrics_enabled() only)
// ---------------------------------------------------------------------------

/// Bucket b holds values in [2^(b-1), 2^b); bucket 0 holds exactly 0.
/// 48 buckets cover nanosecond latencies up to ~1.6 days and byte counts
/// up to ~140 TB.
inline constexpr int kHistogramBuckets = 48;

/// 0 → 0; otherwise bit_width(v) clamped to kHistogramBuckets - 1.
int value_bucket(std::uint64_t v) noexcept;
/// Smallest value that lands in `bucket` (0 for bucket 0).
std::uint64_t bucket_lower_bound(int bucket) noexcept;

/// Record one observation. No-op unless metrics_enabled(); lock-free on
/// the hot path (a thread-local name→histogram cache fronts the one
/// mutex-guarded insert per new name per thread).
void record_value(std::string_view histogram, std::uint64_t value);

/// Aggregated snapshot of one histogram.
struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Approximate quantile: the lower bound of the bucket holding the
  /// p-quantile observation (p in [0, 1]).
  std::uint64_t percentile(double p) const noexcept;
};

struct MetricsSnapshot {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::map<std::string, HistogramData> histograms;
};

/// Aggregate all shards on demand (counters + histograms).
MetricsSnapshot metrics_snapshot();
/// Zero counters and histogram buckets (registered names persist).
void reset_metrics() noexcept;

/// Machine-readable dump: {"counters": {...}, "histograms": {...}}.
std::string metrics_to_json();
/// Human-readable end-of-run summary (pygb_cli --stats / PYGB_METRICS=1).
std::string metrics_summary();

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One completed span, Chrome trace_event "X" style.
struct TraceEvent {
  const char* name;        ///< static string (span names are literals)
  std::uint64_t start_ns;  ///< now_ns() at construction
  std::uint64_t dur_ns;
  std::uint32_t tid;       ///< obs-assigned small integer, stable per thread
  std::string args;        ///< pre-rendered JSON members ("\"k\":v,...")
};

/// RAII span: records begin on construction (when tracing is enabled) and
/// emits one TraceEvent into the calling thread's buffer on destruction.
/// When tracing is disabled the constructor is a relaxed load + branch and
/// every other member is a no-op.
class Span {
 public:
  explicit Span(const char* name) {
    if (tracing_enabled()) [[unlikely]] {
      start(name);
    }
  }
  ~Span() {
    if (active_) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const noexcept { return active_; }

  Span& attr(const char* key, std::string_view value);
  Span& attr(const char* key, const char* value) {
    return attr(key, std::string_view(value != nullptr ? value : ""));
  }
  Span& attr(const char* key, std::uint64_t value);
  Span& attr(const char* key, std::int64_t value);
  Span& attr(const char* key, int value) {
    return attr(key, static_cast<std::int64_t>(value));
  }
  Span& attr(const char* key, double value);

 private:
  void start(const char* name);
  void finish();

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
  std::string args_;
};

/// The obs thread id of the calling thread (registers it on first use).
std::uint32_t current_thread_tid();

namespace detail {

/// POD per-thread span-name stack (names are string literals, so storing
/// the pointers is safe). Constant-initialized — no dynamic TLS ctor — so
/// the crash handler may read the crashing thread's copy from a signal
/// context. Depth beyond kSpanStackMax is counted but not stored.
inline constexpr int kSpanStackMax = 16;
struct SpanStackTls {
  const char* names[kSpanStackMax];
  int depth;
};
/// constinit, like governor::detail::t_bound: accessed without a TLS
/// wrapper.
extern constinit thread_local SpanStackTls g_span_stack;

}  // namespace detail

/// ASYNC-SIGNAL-SAFE: copy the calling thread's active span names
/// (outermost first) into `out`; returns the true depth (may exceed `max`).
int span_stack_unsafe(const char** out, int max) noexcept;

/// Merged snapshot of every thread's buffer, sorted by start time (ties:
/// longer span first, so parents precede children).
std::vector<TraceEvent> collect_trace_events();
void clear_trace_events();
std::size_t trace_event_count();

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// The collected events as a Chrome trace_event JSON document (complete
/// "X" events, microsecond timestamps) loadable in Perfetto.
std::string chrome_trace_json();
/// Write chrome_trace_json() to `path`; false (and *error) on IO failure.
bool write_chrome_trace(const std::string& path, std::string* error = nullptr);

}  // namespace pygb::obs
