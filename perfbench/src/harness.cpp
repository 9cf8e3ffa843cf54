#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>

namespace perfbench {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 20) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  const std::size_t rank = n - 10;  // 1-based nearest rank
  t.value = v[rank - 1];
  t.percentile = std::floor(1000.0 * static_cast<double>(rank) /
                            static_cast<double>(n)) /
                 10.0;
  return t;
}

double best_rate(const std::vector<double>& ms, const std::vector<char>& ok,
                 double window_ms) {
  double total = 0.0, best = 0.0;
  std::size_t good = 0, start = 0;
  for (std::size_t k = 0; k < ms.size(); ++k) {
    total += ms[k];
    good += ok[k] ? 1 : 0;
    // Drop samples from the front while the stretch stays long enough.
    while (start < k && total - ms[start] >= window_ms) {
      total -= ms[start];
      good -= ok[start] ? 1 : 0;
      ++start;
    }
    if (total >= window_ms) {
      best = std::max(best, 1e3 * static_cast<double>(good) / total);
    }
  }
  if (best == 0.0 && total > 0.0 && total < window_ms) {
    best = 1e3 * static_cast<double>(good) / total;  // the whole phase
  }
  return best;
}

double peak_rss_mb() {
  // VmHWM belongs to this program image; ru_maxrss would also keep the
  // peak of the process that forked it before exec (run.py).
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double children_peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- Tracer -----------------------------------------------------------------

namespace {
thread_local int t_open = -1;
thread_local std::uint64_t t_group = 0;
}  // namespace

void Tracer::set_group(std::uint64_t g) { t_group = g; }

Tracer::Span::Span(Tracer& t, const char* name) : t_(t), index_(-1) {
  if (!t_.enabled()) return;
  const std::uint64_t start = now_ns();
  std::lock_guard<std::mutex> lock(t_.mu_);
  index_ = static_cast<int>(t_.records_.size());
  t_.records_.push_back({name, t_group, t_open, start, 0});
  t_open = index_;
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  const std::uint64_t end = now_ns();
  std::lock_guard<std::mutex> lock(t_.mu_);
  Record& r = t_.records_[static_cast<std::size_t>(index_)];
  r.end_ns = end;
  t_open = r.parent;
}

std::map<std::string, Tracer::Rollup> Tracer::rollup() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_ms[static_cast<std::size_t>(r.parent)] +=
          static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    }
  }
  std::map<std::string, Rollup> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const double ms = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    Rollup& ru = out[r.name];
    ++ru.count;
    ru.total_ms += ms;
    ru.self_ms += ms - child_ms[i];
  }
  return out;
}

double Tracer::mean_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  std::size_t n = 0;
  for (const Record& r : records_) {
    if (name == r.name) {
      total += static_cast<double>(r.end_ns - r.start_ns) / 1e6;
      ++n;
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

std::size_t Tracer::count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Record& r : records_) n += name == r.name ? 1 : 0;
  return n;
}

bool Tracer::write_json(const std::string& path) const {
  const auto roll = rollup();
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t base = records_.empty() ? 0 : records_.front().start_ns;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \""
        << r.name << "\", \"group\": " << r.group
        << ", \"parent\": " << r.parent
        << ", \"start_us\": " << num(static_cast<double>(r.start_ns - base) / 1e3)
        << ", \"end_us\": " << num(static_cast<double>(r.end_ns - base) / 1e3)
        << "}";
  }
  out << "\n], \"rollup\": {";
  bool first = true;
  for (const auto& [name, ru] : roll) {
    out << (first ? "\n" : ",\n") << "\"" << name << "\": {\"count\": "
        << ru.count << ", \"total_ms\": " << num(ru.total_ms)
        << ", \"self_ms\": " << num(ru.self_ms) << "}";
    first = false;
  }
  out << "\n}}\n";
  return static_cast<bool>(out);
}

// --- Report -----------------------------------------------------------------

void Report::fail(const std::string& why) {
  ++wrong;
  if (errors.size() < 5) errors.push_back(why);
}

bool write_raw(const Options& opts, const Report& r, const std::string& path) {
  std::ofstream out(path);
  out << "workload " << opts.workload << "\nseed " << opts.seed
      << "\nsetup_s " << num(r.setup_s) << "\nattempted " << r.attempted
      << "\nfailed " << r.failed << "\nwrong " << r.wrong << "\ncompleted "
      << r.completed << "\nphase_s " << num(r.phase_s) << "\npeak_rss_mb "
      << num(r.peak_rss_mb) << "\nrate_window_ms " << num(r.rate_window_ms)
      << "\nrate " << r.rate_ms.size();
  for (std::size_t k = 0; k < r.rate_ms.size(); ++k) {
    out << ' ' << num(r.rate_ms[k]) << ' ' << (r.rate_ok[k] ? 1 : 0);
  }
  out << "\nsamples";
  for (double v : r.samples_ms) out << ' ' << num(v);
  out << '\n';
  return static_cast<bool>(out);
}

bool merge_raw(const std::string& path, Options& opts, Report& r) {
  std::ifstream in(path);
  std::string key;
  bool samples = false;
  while (in >> key) {
    if (key == "workload") {
      in >> opts.workload;
    } else if (key == "seed") {
      in >> opts.seed;
    } else if (key == "setup_s") {
      in >> r.setup_s;  // the last run's; run.py reports its own median
    } else if (key == "attempted" || key == "failed" || key == "wrong" ||
               key == "completed") {
      std::uint64_t n = 0;
      in >> n;
      (key == "attempted" ? r.attempted
       : key == "failed"  ? r.failed
       : key == "wrong"   ? r.wrong
                          : r.completed) += n;
    } else if (key == "phase_s") {
      double s = 0;
      in >> s;
      r.phase_s += s;
    } else if (key == "peak_rss_mb") {
      double mb = 0;
      in >> mb;
      r.peak_rss_mb = std::max(r.peak_rss_mb, mb);
    } else if (key == "rate_window_ms") {
      in >> r.rate_window_ms;
    } else if (key == "rate") {
      // Appended: the parts ran one after another.
      std::size_t n = 0;
      in >> n;
      for (std::size_t k = 0; k < n && in; ++k) {
        double ms = 0;
        int ok = 0;
        in >> ms >> ok;
        r.rate_ms.push_back(ms);
        r.rate_ok.push_back(ok != 0);
      }
    } else if (key == "samples") {
      samples = true;
      for (double v; in >> v;) r.samples_ms.push_back(v);
    } else {
      return false;
    }
  }
  return samples && in.eof();
}

void print_result(const Options& opts, Report& r) {
  const Tail tail = tail_of(r.samples_ms);
  std::vector<std::pair<std::string, double>> metrics;
  if (!opts.trace) {
    metrics = {
        {"setup_s", r.setup_s},
        {"tail_ms", tail.value},
        {"throughput_per_s", best_rate(r.rate_ms, r.rate_ok, r.rate_window_ms)},
        {"peak_rss_mb", r.peak_rss_mb},
    };
  } else {
    r.layer["error_rate"] =
        r.attempted ? static_cast<double>(r.failed) /
                          static_cast<double>(r.attempted)
                    : 0.0;
    const double untraced = median(r.untraced_ms);
    if (untraced > 0 && !r.traced_ms.empty()) {
      r.layer["trace.overhead_pct"] =
          100.0 * (median(r.traced_ms) - untraced) / untraced;
    }
    metrics.assign(r.layer.begin(), r.layer.end());
  }

  std::printf("workload %s seed %llu trace %d: %llu samples, %llu failed\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("tail_ms is p%.1f of %zu samples%s\n", tail.percentile,
              tail.samples,
              tail.samples < 20 ? " (fewer than 20: the maximum)" : "");
  // Printed, not gated: on hosts whose CPU speed switches between levels
  // every few seconds the median flips with the share of fast time in a run
  // (README.md, noise finding 2).
  std::printf("p50_ms %.6g ms (median of %zu samples)\n",
              median(r.samples_ms), r.samples_ms.size());
  std::printf("whole-phase rate %.6g/s (%llu completed in %.6g s)\n",
              r.phase_s > 0 ? static_cast<double>(r.completed) / r.phase_s
                            : 0.0,
              static_cast<unsigned long long>(r.completed), r.phase_s);
  for (const std::string& e : r.errors) {
    std::printf("check failed: %s\n", e.c_str());
  }
  for (const auto& [name, v] : metrics) {
    std::printf("%-28s %14.6g\n", name.c_str(), v);
  }

  std::string cfg = "{";
  for (std::size_t i = 0; i < r.config.size(); ++i) {
    cfg += (i ? ", \"" : "\"") + json_escape(r.config[i].first) + "\": \"" +
           json_escape(r.config[i].second) + "\"";
  }
  cfg += std::string(r.config.empty() ? "" : ", ") +
         "\"tail_percentile\": \"" + num(tail.percentile) +
         "\", \"tail_samples\": \"" + std::to_string(tail.samples) +
         "\", \"p50_ms\": \"" + num(median(r.samples_ms)) +
         "\", \"whole_phase_per_s\": \"" +
         num(r.phase_s > 0 ? static_cast<double>(r.completed) / r.phase_s
                           : 0.0) +
         "\"}";
  std::printf("#config %s\n", cfg.c_str());

  std::string line = "{\"correct\": ";
  line += r.wrong == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", \"" : "\"") + metrics[i].first +
            "\": " + num(metrics[i].second);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
