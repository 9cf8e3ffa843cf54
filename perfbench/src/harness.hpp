// perfbench/src/harness.hpp — measurement scaffolding shared by every
// workload: run options, sample statistics (median and the tail rule),
// in-memory tracing spans, and the result a run prints.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string cache_dir;   ///< PYGB_CACHE_DIR the run was started with
  std::string trace_out;   ///< where a traced run writes its spans
  std::string raw_out;     ///< where an untraced run writes its figures
  std::string scratch_dir; ///< private directory for sockets and modules
};

// --- statistics -------------------------------------------------------------

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// The tail statistic: the highest percentile that still has at least ten
/// samples beyond it (nearest rank n - 10 of n). Below 20 samples no such
/// percentile exists above the median, so the maximum is reported instead
/// and `percentile` reads 100.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> v);

/// throughput_per_s: the highest rate over a stretch of consecutive
/// samples lasting at least `window_ms` — correct samples in the stretch
/// per second of the stretch, each sample lasting `ms[k]` and correct when
/// `ok[k]`. A window of 0 makes every stretch one sample; a phase shorter
/// than the window is one stretch. The fastest stretch, not the whole
/// phase, because the share of time the host runs a thread at its slower
/// speed drifts between runs and over minutes (README.md, noise finding 2)
/// and the whole-phase rate follows that share.
double best_rate(const std::vector<double>& ms, const std::vector<char>& ok,
                 double window_ms);
/// serve-mixed's window: its requests are of different classes, so a
/// stretch must hold many rotations of the mix. A job workload whose jobs
/// are all the same has a window of 0: even in minutes when the host runs
/// slow, single jobs still run at the fast level, while whole seconds at
/// that level may not occur. jit-cold's window is its whole phase
/// (JobWorkload::mixed_samples()).
constexpr double kServeRateWindowMs = 1000.0;

/// Peak resident set of this process since its exec, MB (VmHWM).
double peak_rss_mb();
/// Peak resident set of the largest waited-for child, MB.
double children_peak_rss_mb();

// --- tracing ----------------------------------------------------------------

/// In-memory spans recorded by the benchmark around its calls into the
/// program. A span has a name, start, end and the span open on the same
/// thread when it began; spans of one job or request share `group`.
/// Nothing is written until write_json() at the end of the run, and a
/// disabled tracer records nothing. Spans may be opened from several
/// threads; the open-span stack and the group are per thread, so a process
/// uses one Tracer at a time.
class Tracer {
 public:
  struct Record {
    const char* name;
    std::uint64_t group;
    int parent;  ///< index of the enclosing span, -1 for a root
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  struct Rollup {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< total minus the time of direct children
  };

  class Span {
   public:
    Span(Tracer& t, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& t_;
    int index_;
  };

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }
  /// Group id of the spans the calling thread opens from now on.
  static void set_group(std::uint64_t g);

  std::map<std::string, Rollup> rollup() const;
  /// Mean duration of spans named `name`, ms (0 when none were recorded).
  double mean_ms(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  bool write_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Record> records_;  // guarded by mu_
};

// --- run report -------------------------------------------------------------

/// What one workload run measured. Latencies are per sample, in ms.
struct Report {
  double setup_s = 0.0;
  std::vector<double> samples_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;   ///< refused, shed, errored or wrong samples
  std::uint64_t wrong = 0;    ///< samples whose output failed its check
  /// completed / phase_s is the whole phase's rate (printed, not gated):
  /// samples completed correctly per second of the time spent inside jobs
  /// for the job workloads, of the closed-loop phase for serve-mixed.
  std::uint64_t completed = 0;
  double phase_s = 0.0;
  /// The phase's samples in the order they ran — jobs, or serve-mixed's
  /// closed-loop requests — with whether each completed correctly: the
  /// input of best_rate().
  std::vector<double> rate_ms;
  std::vector<char> rate_ok;
  double rate_window_ms = 0.0;  ///< best_rate()'s window
  double peak_rss_mb = 0.0;  ///< of the process, at the end of the run
  /// Per-sample latencies split by whether the sample was traced (traced
  /// runs only) — the basis of trace.overhead_pct.
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  /// Per-layer metric values by name.
  std::map<std::string, double> layer;
  /// Effective configuration, written beside the result.
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::string> errors;  ///< first few check failures

  /// Count an output that did not match the reference (the caller counts
  /// the sample in `failed`).
  void fail(const std::string& why);
};

/// Write the end-to-end figures of an untraced run to `path`, for
/// merge_raw(); false when the file cannot be written.
bool write_raw(const Options& opts, const Report& r, const std::string& path);
/// Add a run written by write_raw() to `r`: samples appended, counts and
/// phase time summed, peak RSS the largest; the workload and seed go to
/// `opts`. False when the file cannot be read.
bool merge_raw(const std::string& path, Options& opts, Report& r);

/// Print the human-readable summary and then the final JSON line. Metrics
/// are printed by name and value; run.py adds the units, and the per-layer
/// metrics a workload does not measure, from BENCHMARK.json.
void print_result(const Options& opts, Report& report);

}  // namespace perfbench
