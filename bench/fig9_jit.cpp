// bench_fig9_jit — the execution-model costs of Fig. 9: cold compilation
// (codegen + g++ + dlopen), disk-cache hit (dlopen only), memory-cache hit
// (hash lookup), static-table hit, and interp dispatch — plus the paper's
// claim that compile times amortize across runs, and the per-key latency
// of one compiler fork/exec with the PCH.
#include "bench_json.hpp"
#include <benchmark/benchmark.h>

#include <elf.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "pygb/jit/cache.hpp"
#include "pygb/jit/codegen.hpp"
#include "pygb/jit/compiler.hpp"
#include "pygb/jit/module_key.hpp"
#include "pygb/pygb.hpp"

namespace {

using namespace pygb;       // NOLINT
using namespace pygb::jit;  // NOLINT

Matrix small_fixture() {
  return Matrix({{1, 2}, {3, 4}});
}

/// A dedicated throwaway cache dir so cold timings are honest.
std::string bench_cache_dir() {
  return (std::filesystem::temp_directory_path() /
          ("pygb_fig9_bench_" + std::to_string(::getpid())))
      .string();
}

void BM_ColdCompile(benchmark::State& state) {
  if (!Registry::instance().compiler_available()) {
    state.SkipWithError("no C++ compiler available");
    return;
  }
  auto& reg = Registry::instance();
  const auto saved_mode = reg.mode();
  const auto saved_dir = reg.cache_dir();
  reg.set_cache_dir(bench_cache_dir());
  reg.set_mode(Mode::kJit);
  Matrix a = small_fixture();
  Matrix c(2, 2);
  for (auto _ : state) {
    state.PauseTiming();
    reg.clear_disk_cache();  // force codegen + g++ + dlopen
    state.ResumeTiming();
    c[None] = matmul(a, a);
  }
  reg.clear_disk_cache();
  reg.set_cache_dir(saved_dir);
  reg.set_mode(saved_mode);
}

void BM_DiskCacheHit(benchmark::State& state) {
  if (!Registry::instance().compiler_available()) {
    state.SkipWithError("no C++ compiler available");
    return;
  }
  auto& reg = Registry::instance();
  const auto saved_mode = reg.mode();
  const auto saved_dir = reg.cache_dir();
  reg.set_cache_dir(bench_cache_dir());
  reg.set_mode(Mode::kJit);
  Matrix a = small_fixture();
  Matrix c(2, 2);
  c[None] = matmul(a, a);  // populate the disk cache once
  for (auto _ : state) {
    state.PauseTiming();
    reg.clear_memory_cache();  // keep the .so, drop the handle
    state.ResumeTiming();
    c[None] = matmul(a, a);
  }
  reg.clear_disk_cache();
  reg.set_cache_dir(saved_dir);
  reg.set_mode(saved_mode);
}

void BM_MemoryCacheHit(benchmark::State& state) {
  if (!Registry::instance().compiler_available()) {
    state.SkipWithError("no C++ compiler available");
    return;
  }
  auto& reg = Registry::instance();
  const auto saved_mode = reg.mode();
  const auto saved_dir = reg.cache_dir();
  reg.set_cache_dir(bench_cache_dir());
  reg.set_mode(Mode::kJit);
  Matrix a = small_fixture();
  Matrix c(2, 2);
  c[None] = matmul(a, a);  // warm
  for (auto _ : state) {
    c[None] = matmul(a, a);
  }
  reg.clear_disk_cache();
  reg.set_cache_dir(saved_dir);
  reg.set_mode(saved_mode);
}

void BM_StaticTableHit(benchmark::State& state) {
  auto& reg = Registry::instance();
  const auto saved_mode = reg.mode();
  reg.set_mode(Mode::kStatic);
  Matrix a = small_fixture();
  Matrix c(2, 2);
  for (auto _ : state) {
    c[None] = matmul(a, a);
  }
  reg.set_mode(saved_mode);
}

/// The keys the compile gauges build:
///   0: ewise_add_vv on fp64 (Plus);
///   1: jit-cold's shape — mxv, int16 ← int16·int16 over Min.Plus,
///      accumulating with Max;
///   2: a transposed, mixed-dtype mxv — i64 ← f64ᵀ·i64 over Min.Second.
OpRequest gauge_request(int which) {
  OpRequest req;
  if (which == 0) {
    req.func = func::kEWiseAddVV;
    req.c = DType::kFP64;
    req.a = req.b = DType::kFP64;
    req.binary_op = BinaryOp(BinaryOpName::kPlus);
  } else if (which == 1) {
    req.func = func::kMxV;
    req.c = DType::kInt16;
    req.a = req.b = DType::kInt16;
    req.semiring = Semiring(std::string("Min"), std::string("Plus"));
    req.accum = BinaryOp("Max");
  } else {
    req.func = func::kMxV;
    req.c = DType::kInt64;
    req.a = DType::kFP64;
    req.b = DType::kInt64;
    req.a_transposed = true;
    req.semiring = Semiring(std::string("Min"), std::string("Second"));
  }
  return req;
}

/// One real generated kernel TU (the same source the registry compiles for
/// gauge_request(which)), written into `dir`.
std::string write_kernel_source(const std::filesystem::path& dir,
                                int which = 0) {
  const std::filesystem::path path = dir / "bench_kernel.cpp";
  std::ofstream(path) << generate_source(gauge_request(which), cache_stamp());
  return path.string();
}

/// Size of the .text section of an ELF64 shared object (0 if unreadable).
std::uint64_t text_bytes(const std::string& so_path) {
  std::ifstream in(so_path, std::ios::binary);
  Elf64_Ehdr eh{};
  if (!in.read(reinterpret_cast<char*>(&eh), sizeof eh) ||
      eh.e_shentsize != sizeof(Elf64_Shdr)) {
    return 0;
  }
  std::vector<Elf64_Shdr> sh(eh.e_shnum);
  in.seekg(static_cast<std::streamoff>(eh.e_shoff));
  if (!in.read(reinterpret_cast<char*>(sh.data()),
               static_cast<std::streamsize>(sh.size() * sizeof(Elf64_Shdr))) ||
      eh.e_shstrndx >= sh.size()) {
    return 0;
  }
  std::string names(sh[eh.e_shstrndx].sh_size, '\0');
  in.seekg(static_cast<std::streamoff>(sh[eh.e_shstrndx].sh_offset));
  in.read(names.data(), static_cast<std::streamsize>(names.size()));
  for (const Elf64_Shdr& s : sh) {
    if (s.sh_name < names.size() &&
        std::strcmp(names.c_str() + s.sh_name, ".text") == 0) {
      return s.sh_size;
    }
  }
  return 0;
}

// The per-compile latency of one full compiler fork/exec (driver startup,
// PCH load, the module's own code) for each gauge key (gauge_request), with
// the module's text size and the size of the PCH its header uses — the
// per-layer compile gauge behind jit-cold's compile_ms.
void BM_ForkExecCompile(benchmark::State& state) {
  if (!compiler_available()) {
    state.SkipWithError("no C++ compiler available");
    return;
  }
  namespace fs = std::filesystem;
  const int which = static_cast<int>(state.range(0));
  const fs::path dir = bench_cache_dir() + "_forkexec";
  fs::create_directories(dir);
  const std::string src = write_kernel_source(dir, which);
  const std::string out = (dir / "bench_kernel.so").string();
  for (auto _ : state) {
    const CompileResult r = compile_module(src, out);
    if (!r.ok) {
      state.SkipWithError(("compile failed: " + r.log).c_str());
      break;
    }
  }
  state.counters["text_bytes"] = static_cast<double>(text_bytes(out));
  std::error_code ec;
  const std::string pch = active_pch_dir();
  state.counters["pch_bytes"] =
      pch.empty() ? 0.0
                  : static_cast<double>(fs::file_size(
                        pch + "/" + module_header(gauge_request(which)) +
                            ".gch",
                        ec));
  fs::remove_all(dir);
}

void BM_InterpDispatch(benchmark::State& state) {
  auto& reg = Registry::instance();
  const auto saved_mode = reg.mode();
  reg.set_mode(Mode::kInterp);
  Matrix a = small_fixture();
  Matrix c(2, 2);
  for (auto _ : state) {
    c[None] = matmul(a, a);
  }
  reg.set_mode(saved_mode);
}

}  // namespace

BENCHMARK(BM_ColdCompile)->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK(BM_ForkExecCompile)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);
BENCHMARK(BM_DiskCacheHit)->Unit(benchmark::kMicrosecond)->Iterations(20);
BENCHMARK(BM_MemoryCacheHit)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_StaticTableHit)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_InterpDispatch)->Unit(benchmark::kMicrosecond);

PYGB_BENCH_JSON_MAIN("fig9_jit");
