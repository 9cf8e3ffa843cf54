// Tests: the knob table (pygb/config.hpp). Every row parses its default
// and its bounds, and rejects malformed or out-of-range text with one
// error, config::BadValue, naming the variable; the sites that read knobs
// surface that error instead of falling back to a default.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "gbtl/detail/backend.hpp"
#include "pygb/config.hpp"
#include "pygb/jit/cache.hpp"
#include "pygb/jit/compiler.hpp"
#include "pygb/jit/subprocess.hpp"

namespace {

using pygb::config::BadValue;
using pygb::config::Row;

void expect_bad(const Row& row, const std::string& text) {
  try {
    pygb::config::parse(row, text);
    ADD_FAILURE() << row.name << "='" << text << "' was accepted";
  } catch (const BadValue& e) {
    EXPECT_NE(std::string(e.what()).find(row.name), std::string::npos)
        << e.what();
  }
}

std::vector<std::string> tokens(const Row& row) {
  std::vector<std::string> out(1);
  for (const char* c = row.doc; *c != '\0'; ++c) {
    if (*c == '|') {
      out.emplace_back();
    } else {
      out.back() += *c;
    }
  }
  return out;
}

class Knobs : public ::testing::TestWithParam<Row> {};

TEST_P(Knobs, ParsesOneWayAndRejectsTheRest) {
  const Row& row = GetParam();
  if (row.def != nullptr) {
    EXPECT_NO_THROW(pygb::config::parse(row, row.def));
  }
  switch (row.kind) {
    case pygb::config::kU64:
      for (const char* bad : {"abc", "12abc", "", "-1", "+1", " 1", "1G"}) {
        expect_bad(row, bad);
      }
      EXPECT_EQ(pygb::config::parse(row, std::to_string(row.lo)), row.lo);
      EXPECT_EQ(pygb::config::parse(row, std::to_string(row.hi)), row.hi);
      if (row.lo > 0) expect_bad(row, std::to_string(row.lo - 1));
      expect_bad(row, row.hi == pygb::config::kU64Max
                          ? "18446744073709551616"
                          : std::to_string(row.hi + 1));
      break;
    case pygb::config::kBool:
      for (const char* bad : {"abc", "12abc", "", "yes", "2", "OFF"}) {
        expect_bad(row, bad);
      }
      for (const char* yes : {"1", "on", "true"}) {
        EXPECT_EQ(pygb::config::parse(row, yes), 1u) << yes;
      }
      for (const char* no : {"0", "off", "false"}) {
        EXPECT_EQ(pygb::config::parse(row, no), 0u) << no;
      }
      break;
    case pygb::config::kEnum: {
      for (const char* bad : {"abc", "12abc", ""}) expect_bad(row, bad);
      const auto names = tokens(row);
      for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(pygb::config::parse(row, names[i]), i) << names[i];
        std::string upper = names[i];
        for (char& c : upper) c = static_cast<char>(std::toupper(c));
        expect_bad(row, upper);
      }
      break;
    }
    case pygb::config::kString:
      EXPECT_EQ(pygb::config::parse(row, "any text at all"), 0u);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Table, Knobs,
                         ::testing::ValuesIn(pygb::config::kRows),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

/// Sets one variable for the test's lifetime.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (old_.empty()) {
      ::unsetenv(name_);
    } else {
      ::setenv(name_, old_.c_str(), 1);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::string old_;
};

template <typename Read>
void expect_site_rejects(const char* name, const char* value, Read read) {
  EnvGuard env(name, value);
  try {
    read();
    ADD_FAILURE() << name << "='" << value << "' was accepted";
  } catch (const BadValue& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
        << e.what();
  }
}

TEST(KnobSites, MalformedValuesThrowInsteadOfFallingBack) {
  using namespace pygb;  // NOLINT
  // Each of these must be an error, not a wrong value: 1G is not 1 byte,
  // abc is not 0 (no deadline / wait forever), SIMD is not scalar, four
  // is not one thread, yes is not on.
  expect_site_rejects("PYGB_CACHE_MAX_BYTES", "1G",
                      [] { jit::cache_max_bytes(); });
  expect_site_rejects("PYGB_MEM_LIMIT_BYTES", "1G",
                      [] { config::get("PYGB_MEM_LIMIT_BYTES"); });
  expect_site_rejects("PYGB_JIT_TIMEOUT_MS", "abc",
                      [] { jit::jit_timeout_ms(); });
  expect_site_rejects("PYGB_LOCK_TIMEOUT_MS", "abc",
                      [] { jit::lock_timeout_ms(); });
  expect_site_rejects("PYGB_JIT_TIMEOUT_MS", "abc",
                      [] { jit::lock_timeout_ms(); });
  expect_site_rejects("PYGB_BACKEND", "SIMD",
                      [] { config::get("PYGB_BACKEND"); });
  expect_site_rejects("GBTL_NUM_THREADS", "four",
                      [] { config::get("GBTL_NUM_THREADS"); });
  expect_site_rejects("GBTL_NUM_THREADS", "0",
                      [] { config::get("GBTL_NUM_THREADS"); });
  expect_site_rejects("PYGB_METRICS", "yes",
                      [] { config::on("PYGB_METRICS"); });
}

TEST(KnobSites, UnsetAndEmptyStringsReadTheDefault) {
  using namespace pygb;  // NOLINT
  {
    EnvGuard env("PYGB_JIT_TIMEOUT_MS", "2500");
    EXPECT_EQ(jit::jit_timeout_ms(), 2500);
    EXPECT_EQ(jit::lock_timeout_ms(), 2500 + 10000);  // derived default
  }
  {
    EnvGuard env("PYGB_CXX", "");
    EXPECT_EQ(jit::compiler_command(), "g++");
    bool from_env = true;
    EXPECT_STREQ(config::effective(*config::Knob("PYGB_CXX").row, from_env),
                 "g++");
    EXPECT_FALSE(from_env);
  }
  EnvGuard env("PYGB_CACHE_MAX_BYTES", "1073741824");
  EXPECT_EQ(jit::cache_max_bytes(), std::uint64_t{1} << 30);
  bool from_env = false;
  EXPECT_STREQ(config::effective(*config::Knob("PYGB_CACHE_MAX_BYTES").row,
                                 from_env),
               "1073741824");
  EXPECT_TRUE(from_env);
}

TEST(KnobSites, BackendTokensAreTheBackendNames) {
  const Row& row = *pygb::config::Knob("PYGB_BACKEND").row;
  using gbtl::detail::Backend;
  for (auto b : {Backend::kScalar, Backend::kSimd}) {
    EXPECT_EQ(static_cast<Backend>(
                  pygb::config::parse(row, gbtl::detail::backend_name(b))),
              b);
  }
}

}  // namespace
