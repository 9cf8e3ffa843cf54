// perfbench/src/workloads.hpp — the five workloads. Four are closed loops
// of fixed-composition jobs driven by run_jobs(); serve-mixed is an open
// loop against an in-process server.
#pragma once

#include <memory>
#include <string>

#include "harness.hpp"
#include "generators/edge_list.hpp"
#include "pygb/jit/module_key.hpp"
#include "reference.hpp"

namespace pygb {
class Vector;
}

namespace perfbench {

/// A closed-loop workload: one job is one sample.
class JobWorkload {
 public:
  virtual ~JobWorkload() = default;
  /// Everything before the timed phase; timed as setup_s.
  virtual void setup(Tracer& tr, Report& r) = 0;
  /// Untimed: compute what check() compares against.
  virtual void prepare_reference() = 0;
  /// One sample.
  virtual void job(Tracer& tr) = 0;
  /// Compare the last job's outputs with the reference (untimed).
  virtual bool check(std::string& why) = 0;
  /// Untimed work after a job of a traced run (a native rerun, stage
  /// breakdowns).
  virtual void after_job(Tracer&, Report&) {}
  /// Untimed probes after the timed phase of a traced run; fills layers.
  virtual void after_phase(Tracer&, Report&) {}
  /// Whether samples differ in what they do (jit-cold: each compiles a
  /// different op). Then throughput_per_s is the whole phase's rate, the
  /// only stretch that holds the whole mix; otherwise every sample is the
  /// same job, and it is the fastest job's (see best_rate()).
  virtual bool mixed_samples() const { return false; }
};

std::unique_ptr<JobWorkload> make_dsl_small(const Options& opts);
std::unique_ptr<JobWorkload> make_dsl_large(const Options& opts);
std::unique_ptr<JobWorkload> make_ingest(const Options& opts);
std::unique_ptr<JobWorkload> make_jit_cold(const Options& opts);

/// Run setup, then jobs until `opts.seconds` have passed; fills `r`.
void run_jobs(JobWorkload& w, const Options& opts, Tracer& tr, Report& r);

/// serve-mixed: set-up, the open-loop phase and the rate sweep.
void run_serve_mixed(const Options& opts, Tracer& tr, Report& r);

/// The bytes of a workload's generated inputs for a seed (graphs, Matrix
/// Market text and updates, op draw, request stream). The same seed must
/// give the same bytes.
std::string input_bytes(const std::string& workload, std::uint64_t seed);
std::vector<pygb::gen::EdgeList> dsl_graphs(bool large, std::uint64_t seed);
std::string ingest_input_bytes(std::uint64_t seed);
std::string jit_cold_input_bytes(std::uint64_t seed);
std::string serve_input_bytes(std::uint64_t seed);

/// Untimed preparation of a module cache: run every workload's DSL calls
/// once so later runs find every module on disk.
void prepare_cache(const Options& opts);

// --- helpers shared by the workload files -----------------------------------

/// Convert a DSL vector into the reference checker's form.
ref::SparseVec to_sparse(const pygb::Vector& v);

/// The mxv request used to time a disk-cache hit: never used by a
/// workload, compiled into the cache by prepare_cache().
pygb::jit::OpRequest disk_probe_request();

/// Time the first compiler_available() + compiler_identity() (part of
/// set-up) into r.layer["jit.probe_ms"].
void probe_compiler(Tracer& tr, Report& r);

/// Fill the traced-run JIT probes shared by the DSL workloads:
/// jit.key_ns and jit.hit_us over `requests`, and jit.disk_hit_ms.
void jit_probes(const std::vector<pygb::jit::OpRequest>& requests,
                Tracer& tr, Report& r);

}  // namespace perfbench
