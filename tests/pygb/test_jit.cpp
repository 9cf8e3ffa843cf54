// Tests: the dynamic-compilation pipeline of Fig. 9 — source generation,
// g++ invocation, dlopen, and the three cache levels. Skipped gracefully
// when no compiler is reachable.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "pygb/jit/codegen.hpp"
#include "pygb/jit/compiler.hpp"
#include "pygb/pygb.hpp"

namespace {

using namespace pygb;       // NOLINT
using namespace pygb::jit;  // NOLINT

class JitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!compiler_available()) {
      GTEST_SKIP() << "no C++ compiler reachable; JIT tests skipped";
    }
    auto& reg = Registry::instance();
    saved_mode_ = reg.mode();
    saved_dir_ = reg.cache_dir();
    cache_dir_ = (std::filesystem::temp_directory_path() /
                  ("pygb_jit_test_" + std::to_string(::getpid())))
                     .string();
    reg.set_cache_dir(cache_dir_);
    reg.clear_disk_cache();
    reg.set_mode(Mode::kJit);
    reg.reset_stats();
  }
  void TearDown() override {
    auto& reg = Registry::instance();
    reg.clear_disk_cache();
    reg.set_cache_dir(saved_dir_);
    reg.set_mode(saved_mode_);
  }
  Mode saved_mode_;
  std::string saved_dir_;
  std::string cache_dir_;
};

TEST_F(JitTest, ColdCompileWarmMemoryThenDisk) {
  Matrix a({{1, 2}, {3, 4}});
  Matrix c(2, 2);
  auto& reg = Registry::instance();

  c[None] = matmul(a, a);  // cold: generate + compile + dlopen
  auto st = reg.stats();
  EXPECT_EQ(st.compiles, 1u);
  EXPECT_GT(st.compile_seconds, 0.0);
  EXPECT_DOUBLE_EQ(c.get(0, 0), 7.0);

  c[None] = matmul(a, a);  // warm: in-memory module cache
  st = reg.stats();
  EXPECT_EQ(st.compiles, 1u);
  EXPECT_EQ(st.memory_hits, 1u);

  reg.clear_memory_cache();
  c[None] = matmul(a, a);  // disk: .so found and dlopen'd
  st = reg.stats();
  EXPECT_EQ(st.compiles, 1u);
  EXPECT_EQ(st.disk_hits, 1u);
}

TEST_F(JitTest, JitResultMatchesStatic) {
  Matrix a({{1, 2}, {3, 4}});
  Matrix b({{0, 1}, {1, 1}});
  Matrix cj(2, 2);
  {
    With ctx(MinPlusSemiring());
    cj[None] = matmul(a, b);
  }
  Registry::instance().set_mode(Mode::kStatic);
  Matrix cs(2, 2);
  {
    With ctx(MinPlusSemiring());
    cs[None] = matmul(a, b);
  }
  Registry::instance().set_mode(Mode::kJit);
  EXPECT_TRUE(cj.equals(cs));
}

TEST_F(JitTest, CompilesExoticDtypeCombination) {
  // uint16 is outside the static set: only reachable via JIT (or interp),
  // and the JIT keeps exact integer semantics.
  Matrix a(2, 2, DType::kUInt16);
  a.set(0, 0, 300.0);
  a.set(0, 1, 2.0);
  a.set(1, 0, 5.0);
  Matrix c(2, 2, DType::kUInt16);
  c[None] = matmul(a, a);
  EXPECT_EQ(c.get_element(0, 0).to_int64(), 300 * 300 + 2 * 5 - 65536);
}

TEST_F(JitTest, CustomMonoidIdentityCodegen) {
  // A monoid with a non-canonical identity value requires an emitted
  // module-local identity provider.
  Vector u(3, DType::kInt64);
  u.set(0, 2.0);
  u.set(2, 3.0);
  const Monoid weird(BinaryOp("Plus"), MonoidIdentity(Scalar(100)));
  const auto r = reduce(u, weird);
  EXPECT_EQ(r.to_int64(), 105);  // 100 + 2 + 3
}

TEST_F(JitTest, BoundConstantSharedAcrossValues) {
  // Different bound constants reuse one compiled module (the value is a
  // runtime argument) — exactly one compile for both calls.
  Vector u({2, 4});
  Vector w(2);
  Registry::instance().reset_stats();
  {
    With ctx(UnaryOp("Times", 0.5));
    w[None] = apply(u);
  }
  EXPECT_DOUBLE_EQ(w.get(0), 1.0);
  {
    With ctx(UnaryOp("Times", 10.0));
    w[None] = apply(u);
  }
  EXPECT_DOUBLE_EQ(w.get(0), 20.0);
  EXPECT_EQ(Registry::instance().stats().compiles, 1u);
}

TEST_F(JitTest, GeneratedSourceMentionsConcreteTypes) {
  OpRequest req;
  req.func = func::kMxM;
  req.c = DType::kFP32;
  req.a = DType::kInt8;
  req.b = DType::kFP32;
  req.b_transposed = true;
  req.mask = MaskKind::kMatrixComp;
  req.semiring = MinPlusSemiring();
  req.accum = BinaryOp("Max");
  const std::string src = generate_source(req);
  EXPECT_NE(src.find("mxm_entry"), std::string::npos);
  EXPECT_NE(src.find("pygb/jit/thin.hpp"), std::string::npos);
  EXPECT_NE(src.find("float"), std::string::npos);
  EXPECT_NE(src.find("int8_t"), std::string::npos);
  EXPECT_NE(src.find("gbtl::Min"), std::string::npos);
  EXPECT_NE(src.find("IdMaxLimit"), std::string::npos);
  EXPECT_NE(src.find("MaskKind::kMatrixComp"), std::string::npos);
  EXPECT_NE(src.find("gbtl::Max<float>"), std::string::npos);
  EXPECT_NE(src.find("extern \"C\""), std::string::npos);
}

TEST_F(JitTest, CodegenRejectsUnknownFunc) {
  OpRequest req;
  req.func = "frobnicate";
  EXPECT_THROW(generate_source(req), std::invalid_argument);
}

TEST_F(JitTest, WholeAlgorithmViaJit) {
  // An algorithm entry point not in the static set: float BFS levels.
  Matrix g(3, 3, DType::kFP32);
  g.set(0, 1, 1.0);
  g.set(1, 2, 1.0);
  Vector frontier(3, DType::kBool);
  frontier.set(0, Scalar(true));
  Vector levels(3, DType::kInt32);
  const auto depth = detail::dispatch_algo_bfs(g, frontier, levels);
  EXPECT_EQ(depth, 3u);
  EXPECT_EQ(levels.get_element(2).to_int64(), 3);
}

TEST(JitCompiler, ReportsCommandAndIncludeDir) {
  EXPECT_FALSE(compiler_command().empty());
  if (compiler_available()) {
    EXPECT_FALSE(source_include_dir().empty());
  }
}

TEST(JitCompiler, FailedCompileReportsLog) {
  if (!compiler_available()) GTEST_SKIP();
  const auto dir = std::filesystem::temp_directory_path();
  const auto src = dir / "pygb_bad_module.cpp";
  {
    std::ofstream out(src);
    out << "this is not C++\n";
  }
  const auto result =
      compile_module(src.string(), (dir / "pygb_bad_module.so").string());
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.log.empty());
  std::filesystem::remove(src);
}

}  // namespace
