// perfbench — the repository's end-to-end and per-layer benchmark. Usually
// started through perfbench/run.py, which builds it, prepares the module
// cache and repeats set-up; see perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir> [--trace-out <file>] [--raw-out <file>]
//             [--setup-only]
//   perfbench --workload prepare --scratch <dir>
//   perfbench --merge <raw file>...
//
// --raw-out writes an untraced run's end-to-end figures; --merge prints the
// result of several such runs as one (run.py splits a run into fresh
// processes this way).
//
// PYGB_CACHE_DIR must name the module cache of the build under test, and no
// other PYGB_* / GBTL_* variable may be set: every knob stays at the
// program default unless a workload states otherwise.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "gbtl/detail/backend.hpp"
#include "gbtl/detail/parallel.hpp"
#include "pygb/plan.hpp"
#include "pygb/pygb.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --scratch DIR [--trace-out FILE] "
               "[--raw-out FILE] [--setup-only]\n       perfbench --merge "
               "FILE...\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  if (argc > 2 && std::string(argv[1]) == "--merge") {
    Report r;
    for (int k = 2; k < argc; ++k) {
      if (!merge_raw(argv[k], opts, r)) {
        std::fprintf(stderr, "perfbench: cannot read %s\n", argv[k]);
        return 1;
      }
    }
    print_result(opts, r);
    return 0;
  }
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (flag == "--setup-only") {
      opts.setup_only = true;
      continue;
    }
    if (k + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string v = argv[++k];
    if (flag == "--workload") {
      opts.workload = v;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = v == "1";
    } else if (flag == "--trace-out") {
      opts.trace_out = v;
    } else if (flag == "--raw-out") {
      opts.raw_out = v;
    } else if (flag == "--scratch") {
      opts.scratch_dir = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (opts.workload.empty() || opts.scratch_dir.empty()) {
    return usage("--workload and --scratch are required");
  }
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string var = *e;
    if ((var.rfind("PYGB_", 0) == 0 || var.rfind("GBTL_", 0) == 0) &&
        var.rfind("PYGB_CACHE_DIR=", 0) != 0) {
      return usage(("refusing to run with " + var.substr(0, var.find('=')) +
                    " set; the benchmark measures program defaults")
                       .c_str());
    }
  }
  const char* cache = std::getenv("PYGB_CACHE_DIR");
  if (cache == nullptr || *cache == '\0') {
    return usage("PYGB_CACHE_DIR must name the private module cache");
  }
  opts.cache_dir = cache;

  try {
    std::filesystem::create_directories(opts.scratch_dir);
    std::filesystem::create_directories(opts.cache_dir);
    auto& reg = pygb::jit::Registry::instance();
    if (reg.cache_dir() != opts.cache_dir) {
      throw std::runtime_error("registry cache dir " + reg.cache_dir() +
                               " is not PYGB_CACHE_DIR");
    }
    if (opts.workload == "prepare") {
      prepare_cache(opts);
      std::printf("prepared %s\n", opts.cache_dir.c_str());
      return 0;
    }

    Tracer tr;
    tr.set_enabled(opts.trace);
    Report r;
    if (opts.workload == "serve-mixed") {
      run_serve_mixed(opts, tr, r);
    } else {
      std::unique_ptr<JobWorkload> w;
      if (opts.workload == "dsl-small") w = make_dsl_small(opts);
      if (opts.workload == "dsl-large") w = make_dsl_large(opts);
      if (opts.workload == "ingest") w = make_ingest(opts);
      if (opts.workload == "jit-cold") w = make_jit_cold(opts);
      if (!w) return usage(("unknown workload " + opts.workload).c_str());
      run_jobs(*w, opts, tr, r);
    }
    if (opts.setup_only) {
      std::printf("{\"setup_s\": %.9g}\n", r.setup_s);
      return 0;
    }
    r.config.push_back({"workload", opts.workload});
    r.config.push_back({"seed", std::to_string(opts.seed)});
    r.config.push_back({"seconds", std::to_string(opts.seconds)});
    r.config.push_back({"jit_mode", pygb::jit::to_string(reg.mode())});
    r.config.push_back(
        {"backend",
         gbtl::detail::backend_name(gbtl::detail::default_backend())});
    r.config.push_back({"fusion", pygb::fusion::enabled() ? "on" : "off"});
    r.config.push_back(
        {"pool_threads_at_exit", std::to_string(gbtl::detail::num_threads())});
    r.config.push_back({"module_cache", opts.cache_dir});
    if (opts.trace && !opts.trace_out.empty() &&
        !tr.write_json(opts.trace_out)) {
      throw std::runtime_error("cannot write " + opts.trace_out);
    }
    if (opts.trace) {
      for (const auto& [name, ru] : tr.rollup()) {
        std::printf("span %-22s n=%-7zu total %10.3f ms  self %10.3f ms\n",
                    name.c_str(), ru.count, ru.total_ms, ru.self_ms);
      }
    }
    r.peak_rss_mb = peak_rss_mb();
    if (!opts.raw_out.empty() && !write_raw(opts, r, opts.raw_out)) {
      throw std::runtime_error("cannot write " + opts.raw_out);
    }
    print_result(opts, r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
