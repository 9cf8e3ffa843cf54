// pygb_build_pch — precompile the JIT module headers (pygb/jit/thin.hpp
// and pygb/jit/glue.hpp) for JIT module compiles.
//
// Run at build time (the pygb_jit_pch target in src/CMakeLists.txt), never
// by the library: a PCH takes seconds to build, and building it lazily
// would land inside the first cold compile of every fresh cache.
//
// Each PCH is compiled with exactly the module flags minus -shared and
// published as <jit_pch_dir()>/pygb/jit/<header>.gch (tmp + rename). The
// directory is named by the hash of the cache stamp — compiler identity,
// flags, include dir and header digest — so a process whose stamp differs
// finds no PCH and compiles without one. A run whose PCHs already exist
// does nothing; a run that publishes a new one removes the other stamp
// directories under the root, which no build of this tree uses any more.
//
//   pygb_build_pch        exit 0: PCHs present (or no compiler: skipped)
//                         exit 1: the compiler failed on a header
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "pygb/jit/cache.hpp"
#include "pygb/jit/compiler.hpp"
#include "pygb/jit/subprocess.hpp"

namespace fs = std::filesystem;
using namespace pygb::jit;  // NOLINT

namespace {

/// Precompile `file` (a kPchFiles entry) into `dir`. Returns false, with
/// the compiler's output on stderr, when the compile fails.
bool build_one(const fs::path& dir, const std::string& file) {
  const fs::path gch = dir / file;
  std::error_code ec;
  fs::create_directories(gch.parent_path(), ec);
  const fs::path tmp =
      gch.string() + "." + std::to_string(::getpid()) + ".tmp";
  const std::string header = file.substr(0, file.size() - 4);  // ".gch"

  RunOptions opt;
  opt.argv = split_command(compiler_command());
  for (const auto& flag : split_command(compile_flags())) {
    // -shared is a link-stage flag; everything that shapes the
    // preprocessed state must match the module compiles, or g++ refuses
    // the PCH (-Winvalid-pch on the module compile says so).
    if (flag != "-shared") opt.argv.push_back(flag);
  }
  const std::string include = source_include_dir();
  opt.argv.push_back("-x");
  opt.argv.push_back("c++-header");
  opt.argv.push_back("-I" + include);
  opt.argv.push_back(include + "/" + header);
  opt.argv.push_back("-o");
  opt.argv.push_back(tmp.string());
  const RunOutcome ro = run_subprocess(opt);
  if (!ro.ok()) {
    fs::remove(tmp, ec);
    std::fprintf(stderr, "pygb_build_pch: %s\n%s", ro.describe().c_str(),
                 ro.captured.c_str());
    return false;
  }
  fs::rename(tmp, gch, ec);
  if (ec) {
    fs::remove(tmp, ec);
    std::fprintf(stderr, "pygb_build_pch: cannot publish %s: %s\n",
                 gch.c_str(), ec.message().c_str());
    return false;
  }
  std::printf("pygb_build_pch: %s\n", gch.c_str());
  return true;
}

}  // namespace

int main() {
  const std::string dir = jit_pch_dir();
  if (dir.empty() || !compiler_available()) {
    std::printf("pygb_build_pch: no compiler or PCH root; JIT modules "
                "compile without a PCH\n");
    return 0;
  }
  bool published = false;
  for (const char* file : kPchFiles) {
    std::error_code ec;
    if (fs::is_regular_file(fs::path(dir) / file, ec)) continue;
    if (!build_one(dir, file)) return 1;
    published = true;
  }
  if (!published) return 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(jit_pch_root(), ec)) {
    if (entry.path() != fs::path(dir)) fs::remove_all(entry.path(), ec);
  }
  return 0;
}
