// pygb/obs/export.cpp — schema-versioned JSON + Prometheus text exposition
// and the periodic background flusher (export.hpp).
#include "pygb/obs/export.hpp"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>

#include "pygb/obs/obs.hpp"

namespace pygb::obs {

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; label values need \\ \" \n
/// escaped.
std::string prom_name(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string prom_label_value(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// "kernel_ns/<func>/<backend>" → base "kernel_ns" + labels; any other
/// name exports label-free under its sanitized full name.
struct HistSeries {
  std::string base;
  std::string labels;  ///< rendered "{k=\"v\",...}" or ""
};

HistSeries split_histogram_name(const std::string& name) {
  const std::size_t s1 = name.find('/');
  if (s1 != std::string::npos) {
    const std::size_t s2 = name.find('/', s1 + 1);
    if (s2 != std::string::npos && name.find('/', s2 + 1) == std::string::npos) {
      HistSeries hs;
      hs.base = prom_name(name.substr(0, s1));
      hs.labels = "{func=\"" +
                  prom_label_value(name.substr(s1 + 1, s2 - s1 - 1)) +
                  "\",backend=\"" + prom_label_value(name.substr(s2 + 1)) +
                  "\"}";
      return hs;
    }
  }
  return HistSeries{prom_name(name), ""};
}

/// Inclusive upper bound of bucket b for integer observations: bucket b
/// holds [2^(b-1), 2^b), so everything in it is <= 2^b - 1 (bucket 0 holds
/// exactly 0).
std::uint64_t bucket_le(int b) noexcept {
  if (b <= 0) return 0;
  return (std::uint64_t{1} << b) - 1;
}

/// With-labels variant: splice extra members into an existing label set.
std::string merge_labels(const std::string& labels, const char* extra) {
  if (labels.empty()) return std::string("{") + extra + "}";
  std::string out = labels;
  out.insert(out.size() - 1, std::string(",") + extra);
  return out;
}

// -- export destinations ---------------------------------------------------

struct ExportTargets {
  std::mutex mu;
  std::string json_path;
  std::string prom_path;
};

/// Leaked on purpose: the flusher thread and atexit hook outlive statics.
ExportTargets& targets() {
  static auto* t = new ExportTargets();
  return *t;
}

std::atomic<bool> g_flusher_running{false};

}  // namespace

std::string metrics_json() {
  // metrics_to_json() already renders {"counters":...,"histograms":...};
  // splice the schema envelope in front so both stay byte-coherent.
  std::string inner = metrics_to_json();
  std::string out = "{\"schema\":\"pygb.metrics\",\"schema_version\":1,";
  out.append(inner, 1, inner.size() - 1);
  return out;
}

std::string metrics_prometheus() {
  const MetricsSnapshot snap = metrics_snapshot();
  std::string out;
  out.reserve(4096);

  for (unsigned i = 0; i < kCounterCount; ++i) {
    const std::string name =
        "pygb_" + prom_name(counter_name(static_cast<Counter>(i))) + "_total";
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(snap.counters[i]) + "\n";
  }

  // The histogram map is name-sorted, so series of one family ("kernel_ns/
  // mxm/jit", "kernel_ns/mxv/static", ...) are contiguous: emit one TYPE
  // line per family.
  std::string last_family;
  for (const auto& [name, data] : snap.histograms) {
    const HistSeries hs = split_histogram_name(name);
    const std::string family = "pygb_" + hs.base;
    if (family != last_family) {
      out += "# TYPE " + family + " histogram\n";
      last_family = family;
    }
    std::uint64_t cumulative = 0;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      const std::uint64_t n = data.buckets[static_cast<std::size_t>(b)];
      if (n == 0) continue;
      cumulative += n;
      const std::string le = "le=\"" + std::to_string(bucket_le(b)) + "\"";
      out += family + "_bucket" + merge_labels(hs.labels, le.c_str()) + " " +
             std::to_string(cumulative) + "\n";
    }
    out += family + "_bucket" + merge_labels(hs.labels, "le=\"+Inf\"") + " " +
           std::to_string(data.count) + "\n";
    out += family + "_sum" + hs.labels + " " + std::to_string(data.sum) + "\n";
    out += family + "_count" + hs.labels + " " + std::to_string(data.count) +
           "\n";
  }
  return out;
}

bool write_file_atomic(const std::string& path, const std::string& content,
                       std::string* error) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error != nullptr) *error = "cannot open " + tmp;
      return false;
    }
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      if (error != nullptr) *error = "write failed for " + tmp;
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = "rename to " + path + " failed";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

void set_export_paths(const std::string& json_path,
                      const std::string& prom_path) {
  auto& t = targets();
  std::lock_guard lock(t.mu);
  t.json_path = json_path;
  t.prom_path = prom_path;
}

int flush_metrics_files() {
  std::string json_path, prom_path;
  {
    auto& t = targets();
    std::lock_guard lock(t.mu);
    json_path = t.json_path;
    prom_path = t.prom_path;
  }
  int written = 0;
  std::string error;
  if (!json_path.empty()) {
    if (write_file_atomic(json_path, metrics_json() + "\n", &error)) {
      ++written;
    } else {
      std::fprintf(stderr, "pygb: metrics JSON flush failed: %s\n",
                   error.c_str());
    }
  }
  if (!prom_path.empty()) {
    if (write_file_atomic(prom_path, metrics_prometheus(), &error)) {
      ++written;
    } else {
      std::fprintf(stderr, "pygb: metrics Prometheus flush failed: %s\n",
                   error.c_str());
    }
  }
  return written;
}

void start_metrics_flusher(std::int64_t interval_ms) {
  if (interval_ms <= 0) return;
  bool expected = false;
  if (!g_flusher_running.compare_exchange_strong(expected, true)) return;
  // Detached: touches only leaked structures and static atomics, so it is
  // safe to be mid-flush while the process exits (the same discipline as
  // the at-exit exporters).
  std::thread([interval_ms] {
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      flush_metrics_files();
    }
  }).detach();
}

namespace {

/// Saved dispositions so the termination handler can restore-and-reraise.
struct sigaction g_prev_term;
struct sigaction g_prev_int;
std::atomic<bool> g_term_flush_fired{false};

extern "C" void termination_flush_handler(int sig) {
  // One shot: a second signal during the flush must kill us, not recurse.
  //
  // Deliberately NOT async-signal-safe: serializing a metrics snapshot
  // allocates, which is the accepted best-effort tradeoff for a
  // *termination* handler — the process is exiting either way, and a
  // supervisor's kill-escalation bounds the (rare) deadlock where the
  // signal lands on a thread holding the malloc lock. The *crash*
  // handler (obs/crash.cpp) is held to the strict AS-safe standard; this
  // one trades that for a complete snapshot.
  if (!g_term_flush_fired.exchange(true)) {
    flush_metrics_files();
  }
  const struct sigaction* prev =
      sig == SIGTERM ? &g_prev_term : &g_prev_int;
  if (sigaction(sig, prev, nullptr) != 0) {
    std::signal(sig, SIG_DFL);
  }
  raise(sig);  // die with the right wait status (e.g. 128+15)
}

}  // namespace

void install_termination_flush() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = &termination_flush_handler;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGTERM, &sa, &g_prev_term);
    sigaction(SIGINT, &sa, &g_prev_int);
  });
}

}  // namespace pygb::obs
