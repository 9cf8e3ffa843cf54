// pygb/obs/obs.cpp — flags, counters, histograms, span recording, and the
// PYGB_TRACE / PYGB_METRICS environment activation.
#include "pygb/obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "gbtl/detail/pool.hpp"
#include "pygb/config.hpp"
#include "pygb/governor.hpp"
#include "pygb/obs/crash.hpp"
#include "pygb/obs/export.hpp"
#include "pygb/obs/flightrec.hpp"

namespace pygb::obs {

namespace detail {

std::atomic<bool> g_tracing{false};
std::atomic<bool> g_metrics{false};
std::atomic<std::uint64_t> g_counters[kCounterCount]{};

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace detail

void set_tracing_enabled(bool on) noexcept {
  detail::g_tracing.store(on, std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) noexcept {
  detail::g_metrics.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  static const auto anchor = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - anchor)
          .count());
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

namespace {

/// The governor is a leaf module (the worker pool links it without
/// libpygb), so it keeps its own atomics; mirror them into the obs slots
/// whenever a reader looks, keeping every export path coherent.
void sync_governor_counters() noexcept {
  const auto gs = pygb::governor::stats();
  const auto set = [](Counter c, std::uint64_t v) {
    detail::g_counters[static_cast<unsigned>(c)].store(
        v, std::memory_order_relaxed);
  };
  set(Counter::kOpsCancelled, gs.ops_cancelled);
  set(Counter::kOpsDeadlineExceeded, gs.ops_deadline_exceeded);
  set(Counter::kMemBudgetRejections, gs.mem_budget_rejections);
  set(Counter::kMemPeakBytes, gs.mem_peak_bytes);
}

/// Same mirror discipline for the flight recorder (also a leaf module).
/// kCrashReports is NOT mirrored: the crash handler counter_adds it
/// directly (lock-free fetch_add, AS-safe).
void sync_flightrec_counters() noexcept {
  detail::g_counters[static_cast<unsigned>(Counter::kFlightEvents)].store(
      flightrec::total_recorded(), std::memory_order_relaxed);
}

void sync_mxv_counters() noexcept {
  detail::g_counters[static_cast<unsigned>(Counter::kMxvPushDecisions)].store(
      gbtl::detail::mxv_push_decisions(), std::memory_order_relaxed);
  detail::g_counters[static_cast<unsigned>(Counter::kMxvPullDecisions)].store(
      gbtl::detail::mxv_pull_decisions(), std::memory_order_relaxed);
}

}  // namespace

std::uint64_t counter_value(Counter c) noexcept {
  switch (c) {
    case Counter::kOpsCancelled:
    case Counter::kOpsDeadlineExceeded:
    case Counter::kMemBudgetRejections:
    case Counter::kMemPeakBytes:
      sync_governor_counters();
      break;
    case Counter::kFlightEvents:
      sync_flightrec_counters();
      break;
    case Counter::kMxvPushDecisions:
    case Counter::kMxvPullDecisions:
      sync_mxv_counters();
      break;
    default:
      break;
  }
  return detail::g_counters[static_cast<unsigned>(c)].load(
      std::memory_order_relaxed);
}

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kRegistryLookups:
      return "registry_lookups";
    case Counter::kStaticHits:
      return "static_hits";
    case Counter::kMemoryHits:
      return "memory_hits";
    case Counter::kDiskHits:
      return "disk_hits";
    case Counter::kCompiles:
      return "compiles";
    case Counter::kInterpDispatches:
      return "interp_dispatches";
    case Counter::kCompileNanos:
      return "compile_ns";
    case Counter::kGeneratedSourceBytes:
      return "generated_source_bytes";
    case Counter::kTraceEventsDropped:
      return "trace_events_dropped";
    case Counter::kJitFallbacks:
      return "jit_fallbacks";
    case Counter::kCacheQuarantines:
      return "cache_quarantines";
    case Counter::kCacheEvictedBytes:
      return "cache_evicted_bytes";
    case Counter::kJitTimeouts:
      return "jit_timeouts";
    case Counter::kJitKills:
      return "jit_kills";
    case Counter::kJitRetries:
      return "jit_retries";
    case Counter::kWaiterTimeouts:
      return "jit_waiter_timeouts";
    case Counter::kBreakerOpens:
      return "breaker_open";
    case Counter::kBreakerProbes:
      return "breaker_probes";
    case Counter::kBreakerShortCircuits:
      return "breaker_short_circuits";
    case Counter::kLockTimeouts:
      return "cache_lock_timeouts";
    case Counter::kFaultsInjected:
      return "faults_injected";
    case Counter::kOpsCancelled:
      return "ops_cancelled";
    case Counter::kOpsDeadlineExceeded:
      return "ops_deadline_exceeded";
    case Counter::kMemBudgetRejections:
      return "mem_budget_rejections";
    case Counter::kMemPeakBytes:
      return "mem_peak_bytes";
    case Counter::kFlightEvents:
      return "flight_events";
    case Counter::kCrashReports:
      return "crash_reports";
    case Counter::kFusionDeferred:
      return "fusion_deferred";
    case Counter::kFusionFlushes:
      return "fusion_flushes";
    case Counter::kFusionChains:
      return "fusion_chains";
    case Counter::kFusionFusedStatements:
      return "fusion_fused_statements";
    case Counter::kFusionEagerOps:
      return "fusion_eager_ops";
    case Counter::kFusionDce:
      return "fusion_dce";
    case Counter::kMxvPushDecisions:
      return "mxv_push_decisions";
    case Counter::kMxvPullDecisions:
      return "mxv_pull_decisions";
    case Counter::kServeAdmitted:
      return "serve_admitted";
    case Counter::kServeRejected:
      return "serve_rejected";
    case Counter::kServeCancelled:
      return "serve_cancelled";
    case Counter::kServeDisconnects:
      return "serve_disconnects";
    case Counter::kServeDrained:
      return "serve_drained";
    case Counter::kCount_:
      break;
  }
  return "?";
}

void reset_counters() noexcept {
  pygb::governor::reset_stats();
  gbtl::detail::reset_mxv_decisions();
  for (auto& c : detail::g_counters) c.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

namespace {

/// Buckets updated with relaxed atomics only; objects are never freed, so
/// thread-local caches and the at-exit exporter can hold bare pointers.
struct AtomicHistogram {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> buckets[kHistogramBuckets]{};
};

struct HistRegistry {
  std::mutex mu;
  std::map<std::string, AtomicHistogram*, std::less<>> map;
};

/// Leaked on purpose: keeps at-exit exporters safe regardless of static
/// destruction order.
HistRegistry& hist_registry() {
  static auto* reg = new HistRegistry();
  return *reg;
}

AtomicHistogram& hist_for(std::string_view name) {
  thread_local std::map<std::string, AtomicHistogram*, std::less<>> cache;
  if (auto it = cache.find(name); it != cache.end()) return *it->second;
  auto& reg = hist_registry();
  AtomicHistogram* hist;
  {
    std::lock_guard lock(reg.mu);
    auto it = reg.map.find(name);
    if (it == reg.map.end()) {
      it = reg.map.emplace(std::string(name), new AtomicHistogram()).first;
    }
    hist = it->second;
  }
  cache.emplace(std::string(name), hist);
  return *hist;
}

}  // namespace

int value_bucket(std::uint64_t v) noexcept {
  if (v == 0) return 0;
  const int b = std::bit_width(v);
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

std::uint64_t bucket_lower_bound(int bucket) noexcept {
  if (bucket <= 0) return 0;
  return std::uint64_t{1} << (bucket - 1);
}

void record_value(std::string_view histogram, std::uint64_t value) {
  if (!metrics_enabled()) return;
  auto& h = hist_for(histogram);
  h.count.fetch_add(1, std::memory_order_relaxed);
  h.sum.fetch_add(value, std::memory_order_relaxed);
  h.buckets[value_bucket(value)].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t HistogramData::percentile(double p) const noexcept {
  if (count == 0) return 0;
  p = std::min(1.0, std::max(0.0, p));
  const std::uint64_t rank =
      std::min<std::uint64_t>(count - 1,
                              static_cast<std::uint64_t>(p * count));
  std::uint64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) return bucket_lower_bound(b);
  }
  return bucket_lower_bound(kHistogramBuckets - 1);
}

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot snap;
  sync_governor_counters();
  sync_flightrec_counters();
  sync_mxv_counters();
  for (unsigned i = 0; i < kCounterCount; ++i) {
    snap.counters[i] =
        detail::g_counters[i].load(std::memory_order_relaxed);
  }
  auto& reg = hist_registry();
  std::lock_guard lock(reg.mu);
  for (const auto& [name, hist] : reg.map) {
    HistogramData data;
    data.count = hist->count.load(std::memory_order_relaxed);
    data.sum = hist->sum.load(std::memory_order_relaxed);
    for (int b = 0; b < kHistogramBuckets; ++b) {
      data.buckets[static_cast<std::size_t>(b)] =
          hist->buckets[b].load(std::memory_order_relaxed);
    }
    snap.histograms.emplace(name, data);
  }
  return snap;
}

void reset_metrics() noexcept {
  reset_counters();
  auto& reg = hist_registry();
  std::lock_guard lock(reg.mu);
  for (auto& [name, hist] : reg.map) {
    hist->count.store(0, std::memory_order_relaxed);
    hist->sum.store(0, std::memory_order_relaxed);
    for (auto& b : hist->buckets) b.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Span recording
// ---------------------------------------------------------------------------

namespace {

/// Per-thread cap; beyond it events are counted as dropped rather than
/// growing without bound (long traced runs, benchmarks).
constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 20;

struct ThreadSink {
  std::mutex mu;  ///< uncontended for the owner; taken by the collector
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

struct SinkRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadSink>> sinks;
  std::uint32_t next_tid = 1;
};

SinkRegistry& sink_registry() {
  static auto* reg = new SinkRegistry();  // leaked: at-exit safe
  return *reg;
}

ThreadSink& local_sink() {
  thread_local std::shared_ptr<ThreadSink> sink = [] {
    auto s = std::make_shared<ThreadSink>();
    auto& reg = sink_registry();
    std::lock_guard lock(reg.mu);
    s->tid = reg.next_tid++;
    reg.sinks.push_back(s);
    return s;
  }();
  return *sink;
}

}  // namespace

std::uint32_t current_thread_tid() { return local_sink().tid; }

namespace detail {
constinit thread_local SpanStackTls g_span_stack{};
}  // namespace detail

int span_stack_unsafe(const char** out, int max) noexcept {
  const detail::SpanStackTls& st = detail::g_span_stack;
  const int depth = st.depth;
  const int n = std::min({depth, max, detail::kSpanStackMax});
  for (int i = 0; i < n; ++i) out[i] = st.names[i];
  return depth;
}

void Span::start(const char* name) {
  name_ = name;
  start_ns_ = now_ns();
  active_ = true;
  auto& st = detail::g_span_stack;
  if (st.depth < detail::kSpanStackMax) st.names[st.depth] = name;
  ++st.depth;
}

void Span::finish() {
  auto& st = detail::g_span_stack;
  if (st.depth > 0) --st.depth;
  const std::uint64_t end = now_ns();
  ThreadSink& sink = local_sink();
  std::lock_guard lock(sink.mu);
  if (sink.events.size() >= kMaxEventsPerThread) {
    counter_add(Counter::kTraceEventsDropped);
    return;
  }
  sink.events.push_back(TraceEvent{name_, start_ns_, end - start_ns_,
                                   sink.tid, std::move(args_)});
}

Span& Span::attr(const char* key, std::string_view value) {
  if (!active_) return *this;
  if (!args_.empty()) args_ += ',';
  detail::append_json_string(args_, key);
  args_ += ':';
  detail::append_json_string(args_, value);
  return *this;
}

Span& Span::attr(const char* key, std::uint64_t value) {
  if (!active_) return *this;
  if (!args_.empty()) args_ += ',';
  detail::append_json_string(args_, key);
  args_ += ':';
  args_ += std::to_string(value);
  return *this;
}

Span& Span::attr(const char* key, std::int64_t value) {
  if (!active_) return *this;
  if (!args_.empty()) args_ += ',';
  detail::append_json_string(args_, key);
  args_ += ':';
  args_ += std::to_string(value);
  return *this;
}

Span& Span::attr(const char* key, double value) {
  if (!active_) return *this;
  if (!args_.empty()) args_ += ',';
  detail::append_json_string(args_, key);
  args_ += ':';
  char buf[40];
  // JSON has no NaN/Inf literals; fall back to null.
  if (value != value || value > 1.7e308 || value < -1.7e308) {
    std::snprintf(buf, sizeof buf, "null");
  } else {
    std::snprintf(buf, sizeof buf, "%.9g", value);
  }
  args_ += buf;
  return *this;
}

std::vector<TraceEvent> collect_trace_events() {
  std::vector<TraceEvent> out;
  auto& reg = sink_registry();
  std::lock_guard rl(reg.mu);
  for (auto& sink : reg.sinks) {
    std::lock_guard sl(sink->mu);
    out.insert(out.end(), sink->events.begin(), sink->events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;  // parents before children
            });
  return out;
}

void clear_trace_events() {
  auto& reg = sink_registry();
  std::lock_guard rl(reg.mu);
  for (auto& sink : reg.sinks) {
    std::lock_guard sl(sink->mu);
    sink->events.clear();
  }
}

std::size_t trace_event_count() {
  std::size_t n = 0;
  auto& reg = sink_registry();
  std::lock_guard rl(reg.mu);
  for (auto& sink : reg.sinks) {
    std::lock_guard sl(sink->mu);
    n += sink->events.size();
  }
  return n;
}

// ---------------------------------------------------------------------------
// Environment activation
// ---------------------------------------------------------------------------

namespace {

std::string& trace_path_slot() {
  static auto* path = new std::string();  // leaked: at-exit safe
  return *path;
}

bool g_dump_metrics_at_exit = false;

void flush_at_exit() {
  const std::string& path = trace_path_slot();
  if (!path.empty() && tracing_enabled()) {
    std::string error;
    if (write_chrome_trace(path, &error)) {
      std::fprintf(stderr, "pygb: trace written to %s (%zu events)\n",
                   path.c_str(), trace_event_count());
    } else {
      std::fprintf(stderr, "pygb: failed to write trace to %s: %s\n",
                   path.c_str(), error.c_str());
    }
  }
  if (g_dump_metrics_at_exit && metrics_enabled()) {
    std::fputs(metrics_summary().c_str(), stderr);
  }
}

/// Runs during static initialization of any binary linking libpygb (this
/// TU is always pulled in through the counter/flag symbols), where a
/// malformed knob can only abort.
struct EnvActivation {
  EnvActivation() {
    try {
      bool want_atexit = false;
      if (std::string t = config::str("PYGB_TRACE"); !t.empty()) {
        trace_path_slot() = std::move(t);
        set_tracing_enabled(true);
        want_atexit = true;
      }
      if (config::on("PYGB_METRICS")) {
        set_metrics_enabled(true);
        g_dump_metrics_at_exit = true;
        want_atexit = true;
      }
      if (want_atexit) std::atexit(flush_at_exit);
      // Postmortem half: the crash handler and the snapshot exporters.
      const std::string dir = config::str("PYGB_CRASH_DIR");
      if (!dir.empty()) pygb::crash::install(dir.c_str());
      const std::string json = config::str("PYGB_METRICS_JSON");
      const std::string prom = config::str("PYGB_METRICS_PROM");
      if (json.empty() && prom.empty()) return;
      set_export_paths(json, prom);
      set_metrics_enabled(true);  // exports without data are pointless
      std::atexit([] { flush_metrics_files(); });
      // atexit alone loses the final snapshot when a supervisor SIGTERMs
      // the process (the common way a daemon dies) — see export.hpp.
      install_termination_flush();
      start_metrics_flusher(config::get("PYGB_METRICS_INTERVAL_MS"));
    } catch (const config::BadValue& e) {
      config::fatal(e);
    }
  }
} g_env_activation;

}  // namespace

}  // namespace pygb::obs
