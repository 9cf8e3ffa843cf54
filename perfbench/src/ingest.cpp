// ingest: the container lifecycle of Fig. 11. One job parses a seeded
// R-MAT Matrix Market text from memory, builds the DSL container, applies
// eight batches of edge inserts and deletes (each followed by one mxv
// read), and extracts the tuples. This is io parsing plus gbtl::Matrix
// writes; it barely touches dispatch or the JIT.
#include <algorithm>
#include <random>
#include <sstream>
#include <streambuf>
#include <unordered_set>

#include "generators/rmat.hpp"
#include "io/matrix_market.hpp"
#include "pygb/pygb.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pygb::DType;
using pygb::Matrix;
using pygb::Vector;

constexpr int kBatches = 8;
constexpr std::size_t kInserts = 2048;  // per batch
constexpr std::size_t kDeletes = 1024;  // per batch

/// Read-only stream over a string the job does not copy.
struct MemBuf : std::streambuf {
  explicit MemBuf(const std::string& s) {
    char* p = const_cast<char*>(s.data());
    setg(p, p, p + s.size());
  }
};

struct Update {
  bool insert;
  gbtl::IndexType i, j;
  double v;
};

struct Input {
  gbtl::IndexType n = 0;
  std::string text;  ///< Matrix Market, 1-based
  std::vector<std::vector<Update>> batches;
};

Input make_input(Tracer& tr, std::uint64_t seed) {
  pygb::gen::RmatParams p;
  p.scale = 14;
  p.edge_factor = 8;
  p.seed = seed;
  pygb::gen::EdgeList el;
  {
    Tracer::Span s(tr, "generators.build");
    el = pygb::gen::rmat(p);
  }
  Input in;
  in.n = el.num_vertices;
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::uniform_int_distribution<int> weight(1, 9);
  std::ostringstream mm;
  mm << "%%MatrixMarket matrix coordinate real general\n"
     << in.n << " " << in.n << " " << el.edges.size() << "\n";
  std::unordered_set<std::uint64_t> present;
  for (auto& e : el.edges) {
    e.weight = weight(rng);
    mm << e.src + 1 << " " << e.dst + 1 << " " << e.weight << "\n";
    present.insert(e.src << 32 | e.dst);
  }
  in.text = mm.str();
  // Deletes take distinct original edges; inserts add edges that were
  // never present, so every update changes the edge set.
  std::vector<std::size_t> order(el.edges.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::shuffle(order.begin(), order.end(), rng);
  std::uniform_int_distribution<gbtl::IndexType> vertex(0, in.n - 1);
  std::size_t next_delete = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Update> batch;
    for (std::size_t k = 0; k < kInserts; ++k) {
      gbtl::IndexType i, j;
      do {
        i = vertex(rng);
        j = vertex(rng);
      } while (!present.insert(std::uint64_t{i} << 32 | j).second);
      batch.push_back({true, i, j, static_cast<double>(weight(rng))});
      if (k % (kInserts / kDeletes) == 0) {  // interleave deletes
        const auto& e = el.edges[order[next_delete++]];
        batch.push_back({false, e.src, e.dst, 0.0});
      }
    }
    in.batches.push_back(std::move(batch));
  }
  return in;
}

class Ingest : public JobWorkload {
 public:
  explicit Ingest(const Options& opts) : opts_(opts) {}

  void setup(Tracer& tr, Report& r) override {
    probe_compiler(tr, r);
    in_ = make_input(tr, opts_.seed);
    r.config.push_back({"input", "rmat scale 14 edge_factor 8 matrix market, " +
                                     std::to_string(in_.text.size()) +
                                     " bytes"});
    r.config.push_back({"updates", std::to_string(kBatches) + " batches of " +
                                       std::to_string(kInserts) + " inserts + " +
                                       std::to_string(kDeletes) + " deletes"});
    job(tr);  // first calls
  }

  void prepare_reference() override {
    ref::EdgeModel model;
    MemBuf buf(in_.text);
    std::istream in(&buf);
    std::string line;
    std::getline(in, line);  // header
    std::getline(in, line);  // sizes
    std::uint64_t i, j;
    double v;
    while (in >> i >> j >> v) model.insert(i - 1, j - 1, v);
    for (const auto& batch : in_.batches) {
      for (const Update& u : batch) {
        if (u.insert) {
          model.insert(u.i, u.j, u.v);
        } else {
          model.erase(u.i, u.j);
        }
      }
      want_sums_.push_back(model.row_sums(in_.n));
    }
    want_edges_.assign(model.edges().begin(), model.edges().end());
  }

  void job(Tracer& tr) override {
    Tracer::Span job_span(tr, "job");
    pygb::io::Coo coo;
    {
      Tracer::Span s(tr, "io.parse");
      MemBuf buf(in_.text);
      std::istream in(&buf);
      coo = pygb::io::read_matrix_market(in, "ingest");
    }
    Matrix a;
    {
      Tracer::Span s(tr, "container.build");
      a = Matrix::from_coo(coo);
    }
    Vector ones = Vector::from_dense(std::vector<double>(in_.n, 1.0));
    sums_.clear();
    for (const auto& batch : in_.batches) {
      {
        Tracer::Span s(tr, "container.update");
        for (const Update& u : batch) {
          if (u.insert) {
            a.set(u.i, u.j, u.v);
          } else {
            a.remove_element(u.i, u.j);
          }
        }
      }
      Tracer::Span s(tr, "dsl.mxv");
      Vector y(in_.n, DType::kFP64);
      pygb::With ctx(pygb::ArithmeticSemiring());
      y[pygb::None] = pygb::matmul(a, ones);
      sums_.push_back(y);
    }
    Tracer::Span s(tr, "container.extract");
    out_ = a.to_coo();
  }

  bool check(std::string& why) override {
    for (std::size_t b = 0; b < sums_.size(); ++b) {
      if (!ref::same_sparse(to_sparse(sums_[b]), want_sums_[b], 0, 0, why)) {
        why = "row sums after batch " + std::to_string(b) + ": " + why;
        return false;
      }
    }
    std::vector<std::pair<std::pair<std::uint64_t, std::uint64_t>, double>> got;
    for (std::size_t k = 0; k < out_.nnz(); ++k) {
      got.push_back({{out_.rows[k], out_.cols[k]}, out_.vals[k]});
    }
    std::sort(got.begin(), got.end());
    if (got != want_edges_) {
      why = "extracted " + std::to_string(got.size()) + " tuples, expected " +
            std::to_string(want_edges_.size()) + " (or values differ)";
      return false;
    }
    return true;
  }

  void after_phase(Tracer& tr, Report& r) override {
    const double parse = tr.mean_ms("io.parse");
    r.layer["generators.build_ms"] = tr.mean_ms("generators.build");
    r.layer["io.parse_ms"] = parse;
    if (parse > 0) {
      r.layer["io.parse_mb_per_s"] =
          static_cast<double>(in_.text.size()) / 1e6 / (parse / 1e3);
    }
    r.layer["container.build_ms"] = tr.mean_ms("container.build");
    std::size_t updates = 0;
    for (const auto& b : in_.batches) updates += b.size();
    r.layer["container.update_us"] =
        tr.mean_ms("container.update") * 1e3 * kBatches /
        static_cast<double>(updates);
    r.layer["container.extract_ms"] = tr.mean_ms("container.extract");
  }

 private:
  Options opts_;
  Input in_;
  // Outputs of the last job.
  std::vector<Vector> sums_;
  pygb::io::Coo out_;
  // Reference.
  std::vector<ref::SparseVec> want_sums_;
  std::vector<std::pair<std::pair<std::uint64_t, std::uint64_t>, double>>
      want_edges_;
};

}  // namespace

std::string ingest_input_bytes(std::uint64_t seed) {
  Tracer off;
  const Input in = make_input(off, seed);
  std::ostringstream out;
  out << in.text;
  for (const auto& batch : in.batches) {
    for (const Update& u : batch) {
      out << (u.insert ? "+" : "-") << u.i << " " << u.j << " " << u.v << "\n";
    }
  }
  return out.str();
}

std::unique_ptr<JobWorkload> make_ingest(const Options& opts) {
  return std::make_unique<Ingest>(opts);
}

}  // namespace perfbench
