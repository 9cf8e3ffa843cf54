// bench_fig11_container — Fig. 11 reproduction: the container lifecycle
// (read a matrix from disk, construct it from an in-memory container,
// extract the data back out) for the "Python" path (per-token boxed lists,
// the paper's dominant cost) and the native C++ path, across sizes with
// |E| = |V|^1.5. BM_Read_MatrixMarket and BM_Construct_Rmat gauge the two
// ingest layers alone on a skewed, unsorted R-MAT graph: Matrix Market
// parsing from memory, and the counting build behind Matrix::from_coo.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <istream>
#include <map>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>

#include "generators/erdos_renyi.hpp"
#include "generators/rmat.hpp"
#include "gbtl/gbtl.hpp"
#include "io/coo_text.hpp"
#include "io/matrix_market.hpp"
#include "pygb/pygb.hpp"

namespace {

using namespace pygb;  // NOLINT

/// One triplet file per size, written once per process.
const std::string& data_file(gbtl::IndexType n) {
  static std::map<gbtl::IndexType, std::string> files;
  auto it = files.find(n);
  if (it == files.end()) {
    auto el = gen::paper_graph(n, /*seed=*/42, /*symmetric=*/true);
    io::Coo coo;
    coo.nrows = coo.ncols = n;
    for (const auto& e : el.edges) {
      coo.rows.push_back(e.src);
      coo.cols.push_back(e.dst);
      coo.vals.push_back(e.weight);
    }
    const auto path = std::filesystem::temp_directory_path() /
                      ("pygb_fig11_" + std::to_string(n) + ".txt");
    io::write_coo_text(path.string(), coo);
    it = files.emplace(n, path.string()).first;
  }
  return it->second;
}

/// R-MAT graph of 2^scale vertices and 8 edges per vertex in generation
/// order (unsorted, hub rows first-come), with integer weights 1..9.
io::Coo rmat_coo(unsigned scale) {
  gen::RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  p.seed = 1;
  const auto el = gen::rmat(p);
  std::mt19937_64 rng(scale);
  std::uniform_int_distribution<int> weight(1, 9);
  io::Coo coo;
  coo.nrows = coo.ncols = el.num_vertices;
  for (const auto& e : el.edges) {
    coo.rows.push_back(e.src);
    coo.cols.push_back(e.dst);
    coo.vals.push_back(weight(rng));
  }
  return coo;
}

/// Read-only stream buffer over a string, so a read copies nothing first.
struct MemBuf : std::streambuf {
  explicit MemBuf(const std::string& s) {
    char* p = const_cast<char*>(s.data());
    setg(p, p, p + s.size());
  }
};

// --- read from file -----------------------------------------------------------

void BM_Read_Python(benchmark::State& state) {
  const auto n = static_cast<gbtl::IndexType>(state.range(0));
  const auto& path = data_file(n);
  for (auto _ : state) {
    // The CPython path: tokenize every line into individually boxed
    // values, then interpret them with per-element dynamic dispatch.
    auto lists = io::read_file_as_pylists(path);
    auto coo = io::pylists_to_coo(lists);
    benchmark::DoNotOptimize(coo.nnz());
  }
}

void BM_Read_Cpp(benchmark::State& state) {
  const auto n = static_cast<gbtl::IndexType>(state.range(0));
  const auto& path = data_file(n);
  for (auto _ : state) {
    auto coo = io::read_coo_text(path);
    benchmark::DoNotOptimize(coo.nnz());
  }
}

void BM_Read_DirectLoad(benchmark::State& state) {
  // §VIII future work, implemented: the DSL loads straight from disk
  // through the native reader, skipping the boxed-list staging entirely.
  const auto n = static_cast<gbtl::IndexType>(state.range(0));
  const auto& path = data_file(n);
  for (auto _ : state) {
    Matrix m = Matrix::from_file(path);
    benchmark::DoNotOptimize(m.nvals());
  }
}

void BM_Read_MatrixMarket(benchmark::State& state) {
  std::ostringstream text;
  io::write_matrix_market(text,
                          rmat_coo(static_cast<unsigned>(state.range(0))));
  const std::string mm = text.str();
  for (auto _ : state) {
    MemBuf buf(mm);
    std::istream in(&buf);
    auto coo = io::read_matrix_market(in, "rmat");
    benchmark::DoNotOptimize(coo.nnz());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(mm.size()));
}

// --- construct from an in-memory container -------------------------------------

void BM_Construct_Rmat(benchmark::State& state) {
  const auto coo = rmat_coo(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    Matrix m = Matrix::from_coo(coo);
    benchmark::DoNotOptimize(m.nvals());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(coo.nnz()));
}

void BM_Construct_PyGB(benchmark::State& state) {
  const auto n = static_cast<gbtl::IndexType>(state.range(0));
  const auto coo = io::read_coo_text(data_file(n));
  for (auto _ : state) {
    Matrix m = Matrix::from_coo(coo);
    benchmark::DoNotOptimize(m.nvals());
  }
}

void BM_Construct_Native(benchmark::State& state) {
  const auto n = static_cast<gbtl::IndexType>(state.range(0));
  const auto coo = io::read_coo_text(data_file(n));
  for (auto _ : state) {
    auto m = io::to_matrix<double>(coo);
    benchmark::DoNotOptimize(m.nvals());
  }
}

// --- extract the data back out ---------------------------------------------------

void BM_Extract_PyGB(benchmark::State& state) {
  const auto n = static_cast<gbtl::IndexType>(state.range(0));
  const Matrix m = Matrix::from_coo(io::read_coo_text(data_file(n)));
  for (auto _ : state) {
    // Back to boxed per-element lists — Python extraction.
    auto lists = io::coo_to_pylists(m.to_coo());
    benchmark::DoNotOptimize(lists.size());
  }
}

void BM_Extract_Native(benchmark::State& state) {
  const auto n = static_cast<gbtl::IndexType>(state.range(0));
  const auto m = io::to_matrix<double>(io::read_coo_text(data_file(n)));
  gbtl::IndexArray is, js;
  std::vector<double> vs;
  for (auto _ : state) {
    m.extractTuples(is, js, vs);
    benchmark::DoNotOptimize(vs.size());
  }
}

// --- operate after construction (paper: comparable once built) -------------------

void BM_OperateAfterConstruction_PyGB(benchmark::State& state) {
  const auto n = static_cast<gbtl::IndexType>(state.range(0));
  const Matrix m = Matrix::from_coo(io::read_coo_text(data_file(n)));
  Vector u(n, DType::kFP64);
  u[pygb::Slice::all()] = 1.0;
  Vector w(n, DType::kFP64);
  for (auto _ : state) {
    w[None] = matmul(m, u);
    benchmark::DoNotOptimize(w.nvals());
  }
}

void BM_OperateAfterConstruction_Native(benchmark::State& state) {
  const auto n = static_cast<gbtl::IndexType>(state.range(0));
  const auto m = io::to_matrix<double>(io::read_coo_text(data_file(n)));
  gbtl::Vector<double> u(n);
  for (gbtl::IndexType i = 0; i < n; ++i) u.setElement(i, 1.0);
  gbtl::Vector<double> w(n);
  for (auto _ : state) {
    gbtl::mxv(w, gbtl::NoMask{}, gbtl::NoAccumulate{},
              gbtl::ArithmeticSemiring<double>{}, m, u);
    benchmark::DoNotOptimize(w.nvals());
  }
}

}  // namespace

#define FIG11_SWEEP ->RangeMultiplier(2)->Range(128, 8192)->Unit(benchmark::kMillisecond)
#define RMAT_SCALES ->Arg(12)->Arg(14)->Unit(benchmark::kMillisecond)
BENCHMARK(BM_Read_Python) FIG11_SWEEP;
BENCHMARK(BM_Read_Cpp) FIG11_SWEEP;
BENCHMARK(BM_Read_DirectLoad) FIG11_SWEEP;
BENCHMARK(BM_Read_MatrixMarket) RMAT_SCALES;
BENCHMARK(BM_Construct_PyGB) FIG11_SWEEP;
BENCHMARK(BM_Construct_Rmat) RMAT_SCALES;
BENCHMARK(BM_Construct_Native) FIG11_SWEEP;
BENCHMARK(BM_Extract_PyGB) FIG11_SWEEP;
BENCHMARK(BM_Extract_Native) FIG11_SWEEP;
BENCHMARK(BM_OperateAfterConstruction_PyGB) FIG11_SWEEP;
BENCHMARK(BM_OperateAfterConstruction_Native) FIG11_SWEEP;

BENCHMARK_MAIN();
