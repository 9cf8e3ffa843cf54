// jit-cold: one sample is the first call of a never-seen DSL op — an mxv
// whose dtype x semiring x accumulator combination the static table does
// not hold, so Registry::get resolves it as jit-compile (codegen, g++,
// stamp verification, dlopen, publish). The run starts from an empty
// private cache directory and compiles one module at a time from one
// thread.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>

#include "pygb/jit/cache.hpp"
#include "pygb/jit/codegen.hpp"
#include "pygb/jit/compiler.hpp"
#include "pygb/jit/loader.hpp"
#include "pygb/pygb.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pygb::DType;
using pygb::Matrix;
using pygb::Vector;

constexpr gbtl::IndexType kN = 8;

struct Combo {
  DType dtype;
  const char* add;   ///< semiring add monoid
  const char* mult;  ///< semiring multiply
  const char* accum;
};

pygb::Semiring semiring_of(const Combo& c) {
  return pygb::Semiring(std::string(c.add), std::string(c.mult));
}

struct Input {
  std::vector<Combo> combos;  ///< the draw order
  std::vector<double> a;      ///< dense kN x kN values
  std::vector<bool> a_present;
  ref::SparseVec u, w0;
};

Input make_input(std::uint64_t seed) {
  Input in;
  // Dtypes outside the static table's core set, the paper's semirings with
  // an explicit accumulator: 8 x 3 x 4 = 96 combinations, drawn without
  // replacement in a seeded order.
  for (DType dt : {DType::kInt8, DType::kInt16, DType::kInt32, DType::kUInt8,
                   DType::kUInt16, DType::kUInt32, DType::kUInt64,
                   DType::kFP32}) {
    for (auto [add, mult] : {std::pair{"Plus", "Times"},
                             std::pair{"Min", "Plus"},
                             std::pair{"Max", "Times"}}) {
      for (const char* acc : {"Plus", "Min", "Max", "Times"}) {
        in.combos.push_back({dt, add, mult, acc});
      }
    }
  }
  std::mt19937_64 rng(seed);
  std::shuffle(in.combos.begin(), in.combos.end(), rng);
  // Small inputs with values 1..2, so every semiring stays exact in the
  // narrowest dtype.
  std::uniform_int_distribution<int> coin(0, 3), val(1, 2);
  in.a.assign(kN * kN, 0.0);
  in.a_present.assign(kN * kN, false);
  for (std::size_t k = 0; k < in.a.size(); ++k) {
    if (coin(rng) == 0) {
      in.a_present[k] = true;
      in.a[k] = val(rng);
    }
  }
  in.u.present.assign(kN, false);
  in.u.val.assign(kN, 0.0);
  in.w0 = in.u;
  for (gbtl::IndexType i = 0; i < kN; ++i) {
    if (coin(rng) < 2) {
      in.u.present[i] = true;
      in.u.val[i] = val(rng);
    }
    if (coin(rng) == 0) {
      in.w0.present[i] = true;
      in.w0.val[i] = val(rng);
    }
  }
  return in;
}

class JitCold : public JobWorkload {
 public:
  explicit JitCold(const Options& opts) : opts_(opts) {}

  void setup(Tracer& tr, Report& r) override {
    namespace fs = std::filesystem;
    if (!fs::is_empty(opts_.cache_dir)) {
      throw std::runtime_error("jit-cold needs an empty module cache, got " +
                               opts_.cache_dir);
    }
    probe_compiler(tr, r);
    in_ = make_input(opts_.seed);
    r.config.push_back({"ops", "mxv over 8 dtypes x 3 semirings x 4 "
                               "accumulators, seeded order"});
  }

  void prepare_reference() override {}

  void job(Tracer& tr) override {
    if (next_ >= in_.combos.size()) {
      throw std::runtime_error("jit-cold ran out of distinct combinations");
    }
    const Combo& c = in_.combos[next_++];
    Tracer::Span job_span(tr, "job");
    const std::size_t compiles = pygb::jit::Registry::instance().stats().compiles;
    // Inputs of the op's dtype (a few microseconds next to the compile).
    Matrix a(kN, kN, c.dtype);
    Vector u(kN, c.dtype);
    w_ = Vector(kN, c.dtype);
    for (gbtl::IndexType k = 0; k < kN * kN; ++k) {
      if (in_.a_present[k]) a.set(k / kN, k % kN, in_.a[k]);
    }
    for (gbtl::IndexType i = 0; i < kN; ++i) {
      if (in_.u.present[i]) u.set(i, in_.u.val[i]);
      if (in_.w0.present[i]) w_.set(i, in_.w0.val[i]);
    }
    req_ = pygb::jit::OpRequest{};
    req_.func = pygb::jit::func::kMxV;
    req_.c = c.dtype;
    req_.a = c.dtype;
    req_.b = c.dtype;
    req_.semiring = semiring_of(c);
    req_.accum = pygb::BinaryOp(c.accum);
    {
      Tracer::Span s(tr, "jit.get");
      pygb::jit::Registry::instance().get(req_, &info_);
    }
    {
      Tracer::Span s(tr, "dsl.op");
      pygb::With ctx(semiring_of(c), pygb::Accumulator(c.accum));
      w_[pygb::None] += pygb::matmul(a, u);
    }
    compiles_ = pygb::jit::Registry::instance().stats().compiles - compiles;
    last_ = c;
  }

  bool check(std::string& why) override {
    if (std::string(info_.backend) != "jit-compile") {
      why = "resolved as " + std::string(info_.backend) + ", not jit-compile: " +
            info_.key;
      return false;
    }
    if (compiles_ != 1) {
      why = std::to_string(compiles_) + " compiles for one op: " + info_.key;
      return false;
    }
    const ref::SparseVec want =
        ref::mxv(in_.a, in_.a_present, in_.u, in_.w0, last_.add, last_.mult, last_.accum);
    if (!ref::same_sparse(to_sparse(w_), want, 0, 0, why)) {
      why = info_.key + ": " + why;
      return false;
    }
    return true;
  }

  void after_job(Tracer& tr, Report&) override {
    // The same module again, stage by stage, into a directory of its own.
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(opts_.scratch_dir) / "stages";
    fs::create_directories(dir);
    const std::string key = req_.key();
    const std::string stamp = pygb::jit::module_stamp(key);
    const std::string stem = "stage" + std::to_string(next_);
    std::string source;
    {
      Tracer::Span s(tr, "jit.codegen");
      source = pygb::jit::generate_source(req_, stamp);
    }
    std::ofstream((dir / (stem + ".cpp")).string()) << source;
    pygb::jit::CompileResult cr;
    {
      Tracer::Span s(tr, "jit.compile");
      cr = pygb::jit::compile_module((dir / (stem + ".cpp")).string(),
                                     (dir / (stem + ".so")).string());
    }
    std::string err;
    pygb::jit::KernelFn fn = nullptr;
    if (cr.ok) {
      Tracer::Span s(tr, "jit.load");
      fn = pygb::jit::load_kernel((dir / (stem + ".so")).string(), &err, stamp);
    }
    if (!cr.ok || fn == nullptr) {
      throw std::runtime_error("stage breakdown failed for " + key + ": " +
                               cr.log + err);
    }
  }

  bool mixed_samples() const override { return true; }

  void after_phase(Tracer& tr, Report& r) override {
    r.layer["jit.codegen_ms"] = tr.mean_ms("jit.codegen");
    r.layer["jit.compile_ms"] = tr.mean_ms("jit.compile");
    r.layer["jit.load_ms"] = tr.mean_ms("jit.load");
  }

 private:
  Options opts_;
  Input in_;
  std::size_t next_ = 0;
  // The last sample.
  Combo last_{};
  pygb::jit::OpRequest req_;
  pygb::jit::ResolveInfo info_;
  std::size_t compiles_ = 0;
  Vector w_;
};

}  // namespace

std::string jit_cold_input_bytes(std::uint64_t seed) {
  const Input in = make_input(seed);
  std::string out;
  for (const Combo& c : in.combos) {
    out += std::to_string(static_cast<int>(c.dtype)) + c.add + c.mult +
           c.accum + "\n";
  }
  for (std::size_t k = 0; k < in.a.size(); ++k) {
    out += in.a_present[k] ? std::to_string(in.a[k]) + " " : ". ";
  }
  for (std::size_t i = 0; i < kN; ++i) {
    out += (in.u.present[i] ? std::to_string(in.u.val[i]) : ".") + " " +
           (in.w0.present[i] ? std::to_string(in.w0.val[i]) : ".") + "\n";
  }
  return out;
}

std::unique_ptr<JobWorkload> make_jit_cold(const Options& opts) {
  return std::make_unique<JitCold>(opts);
}

}  // namespace perfbench
