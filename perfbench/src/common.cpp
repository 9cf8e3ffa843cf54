// The closed-loop runner and the helpers the workload files share.
#include "gbtl/detail/parallel.hpp"
#include "pygb/jit/compiler.hpp"
#include "pygb/obs/obs.hpp"
#include "pygb/pygb.hpp"
#include "workloads.hpp"

namespace perfbench {

ref::SparseVec to_sparse(const pygb::Vector& v) {
  ref::SparseVec out;
  const gbtl::IndexType n = v.size();
  out.present.assign(n, false);
  out.val.assign(n, 0.0);
  for (gbtl::IndexType i = 0; i < n; ++i) {
    if (v.has_element(i)) {
      out.present[i] = true;
      out.val[i] = v.get(i);
    }
  }
  return out;
}

pygb::jit::OpRequest disk_probe_request() {
  pygb::jit::OpRequest req;
  req.func = pygb::jit::func::kMxV;
  req.c = pygb::DType::kInt16;
  req.a = req.b = pygb::DType::kInt16;
  req.semiring = pygb::ArithmeticSemiring();
  req.accum = pygb::BinaryOp("Plus");
  return req;
}

void probe_compiler(Tracer& tr, Report& r) {
  // Not a pre-probe: this is the process's first compiler query, timed
  // inside set-up, where the DSL's first JIT lookup would otherwise pay it.
  const auto t0 = Clock::now();
  {
    Tracer::Span s(tr, "jit.probe");
    if (!pygb::jit::compiler_available()) {
      throw std::runtime_error("no working C++ compiler for the JIT");
    }
    r.config.push_back({"compiler", pygb::jit::compiler_identity()});
  }
  r.layer["jit.probe_ms"] = ms_since(t0);
}

void jit_probes(const std::vector<pygb::jit::OpRequest>& requests,
                Tracer& tr, Report& r) {
  auto& reg = pygb::jit::Registry::instance();
  constexpr int kReps = 2000;
  double key_ns = 0.0, hit_us = 0.0;
  std::size_t timed = 0;
  for (const auto& req : requests) {
    pygb::jit::ResolveInfo info;
    reg.get(req, &info);
    const std::string backend = info.backend;
    if (backend != "static" && backend != "jit-memory") continue;
    std::size_t sink = 0;
    auto t0 = Clock::now();
    for (int k = 0; k < kReps; ++k) sink += req.key().size();
    key_ns += ms_since(t0) * 1e6 / kReps;
    t0 = Clock::now();
    for (int k = 0; k < kReps; ++k) {
      sink += reg.get(req) != nullptr ? 1 : 0;
    }
    hit_us += ms_since(t0) * 1e3 / kReps;
    if (sink == 0) r.errors.push_back("key/get probe produced nothing");
    ++timed;
  }
  if (timed > 0) {
    r.layer["jit.key_ns"] = key_ns / static_cast<double>(timed);
    r.layer["jit.hit_us"] = hit_us / static_cast<double>(timed);
  }
  reg.clear_memory_cache();
  pygb::jit::ResolveInfo info;
  const auto t0 = Clock::now();
  {
    Tracer::Span s(tr, "jit.disk_hit");
    reg.get(disk_probe_request(), &info);
  }
  const double ms = ms_since(t0);
  if (std::string(info.backend) == "jit-disk") r.layer["jit.disk_hit_ms"] = ms;
}

namespace {

struct Counters {
  pygb::jit::RegistryStats reg;
  std::uint64_t chains, flushes, push, pull;
  static Counters read() {
    using pygb::obs::Counter;
    using pygb::obs::counter_value;
    return {pygb::jit::Registry::instance().stats(),
            counter_value(Counter::kFusionChains),
            counter_value(Counter::kFusionFlushes),
            counter_value(Counter::kMxvPushDecisions),
            counter_value(Counter::kMxvPullDecisions)};
  }
};

}  // namespace

void run_jobs(JobWorkload& w, const Options& opts, Tracer& tr, Report& r) {
  const auto setup_start = Clock::now();
  w.setup(tr, r);
  r.setup_s = ms_since(setup_start) / 1e3;
  if (opts.setup_only) return;
  w.prepare_reference();

  const Counters before = Counters::read();
  double busy_ms = 0.0;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opts.seconds));
  for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
    // A traced run traces every other job, so the untraced half gives
    // trace.overhead_pct from the same process.
    const bool traced = opts.trace && k % 2 == 1;
    tr.set_enabled(traced);
    Tracer::set_group(k);
    const auto t0 = Clock::now();
    w.job(tr);
    const double ms = ms_since(t0);
    busy_ms += ms;
    ++r.attempted;
    r.samples_ms.push_back(ms);
    std::string why;
    const bool ok = w.check(why);
    if (!ok) {
      ++r.failed;
      r.fail("job " + std::to_string(k) + ": " + why);
    }
    r.rate_ms.push_back(ms);
    r.rate_ok.push_back(ok);
    if (opts.trace) {
      (traced ? r.traced_ms : r.untraced_ms).push_back(ms);
      tr.set_enabled(true);
      w.after_job(tr, r);
    }
  }
  // The timed phase is the time spent inside jobs: the checks and the
  // traced-run extras between them are the benchmark's own work.
  r.completed = r.attempted - r.failed;
  r.phase_s = busy_ms / 1e3;
  r.rate_window_ms = w.mixed_samples() ? busy_ms : 0.0;
  tr.set_enabled(opts.trace);
  const Counters after = Counters::read();

  const double jobs = static_cast<double>(r.attempted);
  const double lookups =
      static_cast<double>(after.reg.lookups - before.reg.lookups);
  r.layer["dsl.ops_per_job"] = lookups / jobs;
  r.layer["dsl.fusion_chains"] =
      static_cast<double>(after.chains - before.chains) / jobs;
  r.layer["dsl.fusion_flushes"] =
      static_cast<double>(after.flushes - before.flushes) / jobs;
  r.layer["gbtl.mxv_push"] = static_cast<double>(after.push - before.push) / jobs;
  r.layer["gbtl.mxv_pull"] = static_cast<double>(after.pull - before.pull) / jobs;
  r.layer["gbtl.pool_threads"] = gbtl::detail::num_threads();
  r.layer["jit.compiles"] =
      static_cast<double>(after.reg.compiles - before.reg.compiles);
  const double hits =
      static_cast<double>(after.reg.static_hits - before.reg.static_hits +
                          after.reg.memory_hits - before.reg.memory_hits);
  if (lookups > 0) r.layer["jit.hit_ratio"] = hits / lookups;
  if (opts.trace) w.after_phase(tr, r);
  r.layer["jit.compiler_peak_rss_mb"] = children_peak_rss_mb();
  r.layer["governor.mem_peak_mb"] =
      static_cast<double>(
          pygb::obs::counter_value(pygb::obs::Counter::kMemPeakBytes)) /
      1e6;
}

std::string input_bytes(const std::string& workload, std::uint64_t seed) {
  if (workload == "dsl-small" || workload == "dsl-large") {
    std::string out;
    for (const auto& el : dsl_graphs(workload == "dsl-large", seed)) {
      out += std::to_string(el.num_vertices) + "\n";
      for (const auto& e : el.edges) {
        out += std::to_string(e.src) + " " + std::to_string(e.dst) + " " +
               std::to_string(e.weight) + "\n";
      }
    }
    return out;
  }
  if (workload == "ingest") return ingest_input_bytes(seed);
  if (workload == "jit-cold") return jit_cold_input_bytes(seed);
  if (workload == "serve-mixed") return serve_input_bytes(seed);
  throw std::invalid_argument("unknown workload " + workload);
}

void prepare_cache(const Options& opts) {
  // The set-up of every workload, which runs one job or request of each
  // kind and so compiles every module a measured run will load.
  Options o = opts;
  o.setup_only = true;
  o.trace = false;
  for (auto make : {make_dsl_small, make_dsl_large, make_ingest}) {
    Tracer tr;
    Report r;
    auto w = make(o);
    run_jobs(*w, o, tr, r);
  }
  Tracer tr;
  Report r;
  run_serve_mixed(o, tr, r);
  pygb::jit::Registry::instance().get(disk_probe_request());
}

}  // namespace perfbench
