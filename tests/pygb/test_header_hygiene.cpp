// Header hygiene: every header under src/gbtl and src/pygb/jit compiles
// alone (no reliance on what an umbrella header included first), and the
// light JIT module header keeps its standard-library closure to the seven
// headers its PCH is sized for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "pygb/jit/compiler.hpp"
#include "pygb/jit/subprocess.hpp"

namespace {

namespace fs = std::filesystem;
using namespace pygb::jit;  // NOLINT

fs::path src_dir() {
  return fs::weakly_canonical(fs::path(PYGB_TEST_SOURCE_DIR) / ".." / "src");
}

/// Headers relative to src/: src/gbtl/**/*.hpp and src/pygb/jit/*.hpp.
std::vector<std::string> headers() {
  std::vector<std::string> out;
  std::error_code ec;
  const fs::path root = src_dir();
  for (const auto& e :
       fs::recursive_directory_iterator(root / "gbtl", ec)) {
    if (e.path().extension() == ".hpp") {
      out.push_back(fs::relative(e.path(), root).string());
    }
  }
  for (const auto& e : fs::directory_iterator(root / "pygb" / "jit", ec)) {
    if (e.path().extension() == ".hpp") {
      out.push_back(fs::relative(e.path(), root).string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// g++ with the module flags (minus -shared) and no output.
RunOptions syntax_only(const std::string& header, bool in_repo) {
  RunOptions opt;
  opt.argv = split_command(compiler_command());
  for (const auto& flag : split_command(compile_flags())) {
    if (flag != "-shared") opt.argv.push_back(flag);
  }
  if (in_repo) {
    // The definitions every in-repo target compiles with.
    opt.argv.push_back("-DGBTL_POOL_LINKED=1");
    opt.argv.push_back("-DPYGB_OBS_HOOKS=1");
  }
  opt.argv.push_back("-fsyntax-only");
  opt.argv.push_back("-x");
  opt.argv.push_back("c++");
  opt.argv.push_back("-I" + src_dir().string());
  opt.argv.push_back((src_dir() / header).string());
  return opt;
}

class HeaderAlone : public ::testing::TestWithParam<std::string> {};

TEST_P(HeaderAlone, CompilesOnItsOwn) {
  if (!compiler_available()) GTEST_SKIP() << "no compiler";
  const RunOutcome ro = run_subprocess(syntax_only(GetParam(), true));
  EXPECT_TRUE(ro.ok()) << GetParam() << ": " << ro.describe() << "\n"
                       << ro.captured.substr(0, 4000);
}

INSTANTIATE_TEST_SUITE_P(
    Src, HeaderAlone, ::testing::ValuesIn(headers()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

/// The libstdc++ headers the light module header may include itself or
/// through project headers (what they pull in is their own business).
const std::set<std::string> kAllowed = {"cstddef", "cstdint", "type_traits",
                                        "utility", "limits",  "vector",
                                        "algorithm"};

TEST(ThinModuleHeader, IncludesOnlyTheAllowedStandardHeaders) {
  if (!compiler_available()) GTEST_SKIP() << "no compiler";
  // Module mode: no GBTL_POOL_LINKED, exactly what a thin module sees.
  RunOptions opt = syntax_only("pygb/jit/thin.hpp", false);
  opt.argv.insert(opt.argv.begin() + 1, "-H");
  const RunOutcome ro = run_subprocess(opt);
  ASSERT_TRUE(ro.ok()) << ro.describe() << "\n" << ro.captured;

  // -H prints one line per header, indented with one '.' per depth. Track
  // the chain of includers: a libstdc++ header whose includer is a
  // project header (or thin.hpp itself, depth 1) must be allowed.
  const std::string project = src_dir().string() + "/";
  std::vector<std::string> chain;  // chain[d] = header at depth d+1
  std::vector<std::string> offenders;
  std::size_t pos = 0;
  while (pos < ro.captured.size()) {
    std::size_t end = ro.captured.find('\n', pos);
    if (end == std::string::npos) end = ro.captured.size();
    const std::string line = ro.captured.substr(pos, end - pos);
    pos = end + 1;
    std::size_t depth = 0;
    while (depth < line.size() && line[depth] == '.') ++depth;
    if (depth == 0 || depth >= line.size() || line[depth] != ' ') continue;
    const std::string path = line.substr(depth + 1);
    chain.resize(depth - 1);
    const bool includer_is_project =
        depth == 1 || chain.back().rfind(project, 0) == 0;
    chain.push_back(path);
    const std::size_t cxx = path.find("/c++/");
    if (!includer_is_project || cxx == std::string::npos) continue;
    // "/usr/include/c++/12/vector" -> "vector"
    const std::string rel = path.substr(path.find('/', cxx + 5) + 1);
    if (kAllowed.count(rel) == 0) offenders.push_back(rel);
  }
  EXPECT_TRUE(offenders.empty())
      << "thin.hpp's closure includes libstdc++ headers outside the "
         "allow-list: "
      << ::testing::PrintToString(offenders);
  EXPECT_NE(ro.captured.find(project + "gbtl/core.hpp"), std::string::npos)
      << "expected the -H listing to name the operator cores";
}

/// The project headers in a module-mode -H listing of `header`.
std::vector<std::string> project_closure(const std::string& header) {
  RunOptions opt = syntax_only(header, false);
  opt.argv.insert(opt.argv.begin() + 1, "-H");
  const RunOutcome ro = run_subprocess(opt);
  EXPECT_TRUE(ro.ok()) << ro.describe() << "\n" << ro.captured;
  const std::string project = src_dir().string() + "/";
  std::vector<std::string> out = {(src_dir() / header).string()};
  std::size_t pos = 0;
  while ((pos = ro.captured.find(". " + project, pos)) != std::string::npos) {
    pos += 2;
    const std::size_t end = ro.captured.find('\n', pos);
    out.push_back(ro.captured.substr(pos, end - pos));
  }
  return out;
}

TEST(ModuleHeaders, NeverReadTheEnvironment) {
  if (!compiler_available()) GTEST_SKIP() << "no compiler";
  // A cached module must behave the same whatever the host environment
  // says now; knobs are read in-process (pygb/config.hpp) and reach
  // modules only through their dispatch key or the injected tables.
  for (const char* header : {"pygb/jit/thin.hpp", "pygb/jit/glue.hpp"}) {
    for (const std::string& path : project_closure(header)) {
      std::ifstream in(path);
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      EXPECT_EQ(text.find("getenv"), std::string::npos) << path;
      EXPECT_EQ(text.find("#include \"pygb/config.hpp\""), std::string::npos)
          << path;
    }
  }
}

}  // namespace
