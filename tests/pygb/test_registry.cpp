// Tests: the module registry — backend modes, cache statistics, the
// static-mode failure (the paper's precompilation-infeasibility point),
// and the §V combination-space counts.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "pygb/pygb.hpp"

namespace {

using namespace pygb;       // NOLINT
using namespace pygb::jit;  // NOLINT

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_mode_ = Registry::instance().mode();
    Registry::instance().reset_stats();
  }
  void TearDown() override { Registry::instance().set_mode(saved_mode_); }
  Mode saved_mode_;
};

TEST_F(RegistryTest, ModeParseRoundTrip) {
  for (auto m : {Mode::kAuto, Mode::kStatic, Mode::kJit, Mode::kInterp}) {
    EXPECT_EQ(parse_mode(to_string(m)), m);
  }
  EXPECT_THROW(parse_mode("bogus"), std::invalid_argument);
}

TEST_F(RegistryTest, StaticTableIsPopulated) {
  // The curated build-time set registers on first use of the registry.
  EXPECT_GT(Registry::instance().static_kernel_count(), 500u);
}

TEST_F(RegistryTest, EveryStaticEntryResolvesToItsKernelUnderBothBackends) {
  // The table is constant data; the registry builds the keys. Each entry's
  // rebuilt request must find exactly that entry's kernel, with and
  // without the backend suffix, and no two entries may share a key.
  auto& reg = Registry::instance();
  reg.set_mode(Mode::kStatic);
  std::set<std::string> keys;
  std::size_t entries = 0;
  for (const auto& table : static_kernel_tables()) {
    for (const StaticEntry& e : table) {
      ++entries;
      OpRequest req = e.request();
      EXPECT_TRUE(keys.insert(req.key()).second) << "duplicate " << req.key();
      for (auto be : {gbtl::detail::Backend::kScalar,
                      gbtl::detail::Backend::kSimd}) {
        req.backend = be;
        ResolveInfo info;
        EXPECT_EQ(reg.get(req, &info), e.fn) << req.key();
        EXPECT_STREQ(info.backend, "static");
      }
    }
  }
  EXPECT_EQ(entries, reg.static_kernel_count());
}

TEST_F(RegistryTest, StaticHitCounts) {
  Registry::instance().set_mode(Mode::kStatic);
  Matrix a({{1, 2}, {3, 4}});
  Matrix c(2, 2);
  c[None] = matmul(a, a);
  auto st = Registry::instance().stats();
  EXPECT_EQ(st.lookups, 1u);
  EXPECT_EQ(st.static_hits, 1u);
  EXPECT_EQ(st.compiles, 0u);
  EXPECT_EQ(st.interp_dispatches, 0u);
}

TEST_F(RegistryTest, StaticModeRejectsUnregisteredCombination) {
  Registry::instance().set_mode(Mode::kStatic);
  // uint16 mxm is far outside the curated set.
  Matrix a(2, 2, DType::kUInt16);
  a.set(0, 0, 1.0);
  Matrix c(2, 2, DType::kUInt16);
  EXPECT_THROW((c[None] = matmul(a, a)), NoKernelError);
}

TEST_F(RegistryTest, InterpModeHandlesAnything) {
  Registry::instance().set_mode(Mode::kInterp);
  Matrix a(2, 2, DType::kUInt16);
  a.set(0, 0, 3.0);
  a.set(0, 1, 4.0);
  a.set(1, 0, 1.0);
  Matrix c(2, 2, DType::kUInt16);
  c[None] = matmul(a, a);
  EXPECT_EQ(c.get_element(0, 0).to_int64(), 13);  // 3*3 + 4*1
  auto st = Registry::instance().stats();
  EXPECT_GE(st.interp_dispatches, 1u);
}

TEST_F(RegistryTest, AutoPrefersStatic) {
  Registry::instance().set_mode(Mode::kAuto);
  Matrix a({{1, 0}, {0, 1}});
  Matrix c(2, 2);
  c[None] = a + a;
  auto st = Registry::instance().stats();
  EXPECT_EQ(st.static_hits, st.lookups);
}

TEST_F(RegistryTest, InterpAndStaticAgree) {
  Matrix a({{1, 2}, {3, 4}});
  Matrix b({{0, 1}, {1, 0}});
  Matrix cs(2, 2), ci(2, 2);
  Registry::instance().set_mode(Mode::kStatic);
  cs[None] = matmul(a, b);
  Registry::instance().set_mode(Mode::kInterp);
  ci[None] = matmul(a, b);
  EXPECT_TRUE(cs.equals(ci));
}

TEST_F(RegistryTest, ResetStatsClears) {
  Matrix a({{1, 0}, {0, 1}});
  Matrix c(2, 2);
  c[None] = a + a;
  Registry::instance().reset_stats();
  auto st = Registry::instance().stats();
  EXPECT_EQ(st.lookups, 0u);
  EXPECT_EQ(st.static_hits, 0u);
}

TEST(CombinationSpace, MatchesPaperScale) {
  // §V: "roughly 6 trillion combinations of template parameters for mxm".
  const auto mxm = combination_space(func::kMxM);
  EXPECT_GT(mxm, 1'000'000'000'000ull);  // > 10^12
  // Every op class is far beyond any plausible ahead-of-time build.
  EXPECT_GT(combination_space(func::kMxV), 100'000'000ull);
  EXPECT_GT(combination_space(func::kEWiseAddMM), 10'000'000ull);
  EXPECT_GT(combination_space(func::kApplyM), 100'000ull);
  EXPECT_GT(combination_space(func::kReduceMS), 10'000ull);
  // ...and the curated static table is a vanishing fraction.
  EXPECT_LT(Registry::instance().static_kernel_count(), 100'000u);
}

TEST(InterpSim, OverheadConfigurable) {
  set_interp_overhead_ns(0);
  EXPECT_EQ(interp_overhead_ns(), 0);
  set_interp_overhead_ns(1500);
  EXPECT_EQ(interp_overhead_ns(), 1500);
  set_interp_overhead_ns(0);
}

}  // namespace
