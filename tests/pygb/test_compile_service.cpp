// Tests: the supervised persistent compile service (pygb_compiled) and the
// background-tiering path — the wire protocol's torn-frame/oversize/timeout
// classification, warm-worker reuse, SIGKILL-mid-request degradation with
// restart, the service-level breaker falling back to in-process fork/exec,
// stale-protocol rejection, and PYGB_TIER=async serving the interpreter
// immediately while the module compiles in the background
// (docs/ROBUSTNESS.md degradation ladder).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pygb/faultinj.hpp"
#include "pygb/jit/codegen.hpp"
#include "pygb/jit/compile_service.hpp"
#include "pygb/jit/compiler.hpp"
#include "pygb/jit/registry.hpp"
#include "pygb/pygb.hpp"

namespace {

namespace fs = std::filesystem;
using namespace pygb;       // NOLINT
using namespace pygb::jit;  // NOLINT

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

/// Set an env var for the test body, restoring the prior state on exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

std::vector<fs::path> list_with_suffix(const std::string& dir,
                                       const std::string& suffix) {
  std::vector<fs::path> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      out.push_back(entry.path());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Wire protocol unit tests (no worker process).
// ---------------------------------------------------------------------------

TEST(CompiledProtocol, SplitFieldsKeepsFinalFieldVerbatim) {
  std::string f[4];
  // The last field may contain the separator (a compiler stderr tail is
  // arbitrary bytes) without shifting the grammar.
  const std::string payload = std::string("RSP") + compiled::kSep + "7" +
                              compiled::kSep + "ok" + compiled::kSep +
                              "tail with " + compiled::kSep + " inside";
  compiled::split_fields(payload, compiled::kSep, 4, f);
  EXPECT_EQ(f[0], "RSP");
  EXPECT_EQ(f[1], "7");
  EXPECT_EQ(f[2], "ok");
  EXPECT_EQ(f[3], std::string("tail with ") + compiled::kSep + " inside");

  // Short payloads leave trailing fields empty instead of crashing.
  compiled::split_fields("just-one", compiled::kSep, 4, f);
  EXPECT_EQ(f[0], "just-one");
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(f[3], "");
}

class SocketPair : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv_), 0);
  }
  void TearDown() override {
    if (sv_[0] >= 0) ::close(sv_[0]);
    if (sv_[1] >= 0) ::close(sv_[1]);
  }
  void close_write_end() {
    ::close(sv_[1]);
    sv_[1] = -1;
  }
  int sv_[2] = {-1, -1};
};

TEST_F(SocketPair, FrameRoundtrips) {
  const std::string payload = "hello\x1fworld";
  ASSERT_TRUE(compiled::write_frame(sv_[1], payload));
  std::string got;
  EXPECT_EQ(compiled::read_frame(sv_[0], &got, 1000),
            compiled::ReadResult::kOk);
  EXPECT_EQ(got, payload);

  ASSERT_TRUE(compiled::write_frame(sv_[1], ""));
  EXPECT_EQ(compiled::read_frame(sv_[0], &got, 1000),
            compiled::ReadResult::kOk);
  EXPECT_EQ(got, "");
}

TEST_F(SocketPair, CleanCloseIsEofNotCorruption) {
  close_write_end();
  std::string got;
  EXPECT_EQ(compiled::read_frame(sv_[0], &got, 1000),
            compiled::ReadResult::kEof);
}

TEST_F(SocketPair, SilenceIsATimeout) {
  const auto start = std::chrono::steady_clock::now();
  std::string got;
  EXPECT_EQ(compiled::read_frame(sv_[0], &got, 150),
            compiled::ReadResult::kTimeout);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_GE(elapsed, 100);  // poll() may wake a tick early
  EXPECT_LT(elapsed, 5000);
}

TEST_F(SocketPair, OversizedLengthIsMalformed) {
  // A header promising more than kMaxFrameBytes is corruption, not an
  // allocation request.
  const unsigned char hdr[4] = {0xff, 0xff, 0xff, 0x7f};
  ASSERT_EQ(::send(sv_[1], hdr, 4, 0), 4);
  std::string got;
  EXPECT_EQ(compiled::read_frame(sv_[0], &got, 1000),
            compiled::ReadResult::kMalformed);
}

TEST_F(SocketPair, TornFrameIsMalformedNotEof) {
  // Header promises 10 payload bytes; the peer dies after 3. The supervisor
  // must classify this as corruption (a mid-frame death), not a clean EOF.
  const unsigned char hdr[4] = {10, 0, 0, 0};
  ASSERT_EQ(::send(sv_[1], hdr, 4, 0), 4);
  ASSERT_EQ(::send(sv_[1], "abc", 3, 0), 3);
  close_write_end();
  std::string got;
  EXPECT_EQ(compiled::read_frame(sv_[0], &got, 1000),
            compiled::ReadResult::kMalformed);
}

// ---------------------------------------------------------------------------
// Service supervision: a REAL pygb_compiled worker process.
// ---------------------------------------------------------------------------

class CompileServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!compiler_available()) {
      GTEST_SKIP() << "no C++ compiler reachable";
    }
    std::error_code ec;
    if (!fs::exists(compiled_worker_path(), ec)) {
      GTEST_SKIP() << "pygb_compiled worker not found at "
                   << compiled_worker_path();
    }
    scratch_ = (fs::temp_directory_path() /
                ("pygb_compiled_test_" + std::to_string(::getpid())))
                   .string();
    fs::create_directories(scratch_);
    env_.emplace_back(new EnvGuard("PYGB_COMPILED", "on"));
    env_.emplace_back(new EnvGuard("PYGB_COMPILED_TIMEOUT_MS", "30000"));
    faultinj::configure("");
    CompileService::instance().reset();
  }
  void TearDown() override {
    env_.clear();  // restore env BEFORE reset so the service re-disables
    CompileService::instance().reset();
    faultinj::configure("");
    std::error_code ec;
    fs::remove_all(scratch_, ec);
  }

  /// A trivial instantly-compiling translation unit.
  std::string trivial_source(const std::string& stem) {
    const fs::path src = fs::path(scratch_) / (stem + ".cpp");
    write_file(src, "extern \"C\" int pygb_probe() { return 7; }\n");
    return src.string();
  }

  /// A REAL generated kernel module — seconds of g++ work, wide enough a
  /// window to SIGKILL the worker mid-compile deterministically.
  /// A module that takes about a second to compile: a whole algorithm
  /// (glue.hpp); a single eWise op is a thin module and done in ~0.1 s.
  std::string slow_source(const std::string& stem) {
    OpRequest req;
    req.func = func::kAlgoPagerank;
    req.a = DType::kFP64;
    const fs::path src = fs::path(scratch_) / (stem + ".cpp");
    write_file(src, generate_source(req));
    return src.string();
  }

  std::string out_path(const std::string& stem) {
    return (fs::path(scratch_) / (stem + ".so")).string();
  }

  std::vector<std::unique_ptr<EnvGuard>> env_;
  std::string scratch_;
};

TEST_F(CompileServiceTest, WarmWorkerServesConsecutiveCompiles) {
  auto& svc = CompileService::instance();
  ASSERT_TRUE(svc.enabled());

  const auto a1 = svc.compile(trivial_source("warm1"), out_path("warm1"), 0);
  ASSERT_TRUE(a1.serviced) << a1.note;
  EXPECT_TRUE(a1.result.ok) << a1.result.log;
  EXPECT_TRUE(fs::exists(out_path("warm1")));

  const auto st1 = svc.state();
  EXPECT_TRUE(st1.running);
  EXPECT_GT(st1.worker_pid, 0);
  EXPECT_EQ(st1.restarts, 0);

  const auto a2 = svc.compile(trivial_source("warm2"), out_path("warm2"), 0);
  ASSERT_TRUE(a2.serviced) << a2.note;
  EXPECT_TRUE(a2.result.ok) << a2.result.log;

  // Same worker served both: warm reuse, no respawn.
  const auto st2 = svc.state();
  EXPECT_EQ(st2.worker_pid, st1.worker_pid);
  EXPECT_EQ(st2.restarts, 0);
}

TEST_F(CompileServiceTest, CompilerDiagnosticIsServicedNotAServiceFailure) {
  auto& svc = CompileService::instance();
  const fs::path bad = fs::path(scratch_) / "bad.cpp";
  write_file(bad, "this is not C++ at all\n");

  const auto att = svc.compile(bad.string(), out_path("bad"), 0);
  // The WORKER answered — a compile diagnostic is a healthy service.
  ASSERT_TRUE(att.serviced) << att.note;
  EXPECT_FALSE(att.result.ok);
  EXPECT_NE(att.result.log.find("via compile service"), std::string::npos)
      << att.result.log;
  EXPECT_NE(att.result.log.find("error"), std::string::npos)
      << att.result.log;

  const auto st = svc.state();
  EXPECT_TRUE(st.running);  // the worker survived the diagnostic
  EXPECT_EQ(st.consecutive_failures, 0);
}

TEST_F(CompileServiceTest, SigkilledWorkerMidRequestFallsBackAndRestarts) {
  auto& svc = CompileService::instance();

  // Warm the service so the kill hits an established worker.
  const auto warm = svc.compile(trivial_source("pre"), out_path("pre"), 0);
  ASSERT_TRUE(warm.serviced) << warm.note;
  const pid_t pid1 = svc.state().worker_pid;
  ASSERT_GT(pid1, 0);

  // A real kernel compile takes seconds; SIGKILL the worker 100ms in.
  // The request deadline is deliberately huge: the assertion below is that
  // death is surfaced by EOF long before it, however loaded the machine.
  CompileService::Attempt att;
  const auto start = std::chrono::steady_clock::now();
  std::thread requester([&] {
    att = svc.compile(slow_source("victim"), out_path("victim"), 60000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(::kill(pid1, SIGKILL), 0);
  requester.join();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  // Degraded, fast: EOF on the socket surfaces the death immediately — the
  // caller is NOT held to the 60s request deadline (and the "died" note
  // proves the EOF classification ran, not the timeout). The bound is half
  // the deadline because a parallel ctest run oversubscribes the CPU.
  EXPECT_FALSE(att.serviced);
  EXPECT_NE(att.note.find("died"), std::string::npos) << att.note;
  EXPECT_LT(elapsed, 30000);

  // The dead worker is REAPED (no zombie left for process-table audits)...
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(fs::exists("/proc/" + std::to_string(pid1)))
      << "worker " << pid1 << " not reaped";

  // ...and its g++ child died with it (PR_SET_PDEATHSIG): nothing keeps
  // writing the output file, and no .tmp litter survives.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_FALSE(fs::exists(out_path("victim")));
  EXPECT_TRUE(list_with_suffix(scratch_, ".tmp").empty());

  // After the backoff the service restarts and serves warm again.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const auto again =
      svc.compile(trivial_source("post"), out_path("post"), 0);
  ASSERT_TRUE(again.serviced) << again.note;
  EXPECT_TRUE(again.result.ok) << again.result.log;
  const auto st = svc.state();
  EXPECT_GE(st.restarts, 1);
  EXPECT_NE(st.worker_pid, pid1);
  EXPECT_EQ(st.consecutive_failures, 0);
}

TEST_F(CompileServiceTest, UnspawnableWorkerTripsBreakerAndForkExecServes) {
  env_.emplace_back(
      new EnvGuard("PYGB_COMPILED_BIN", "/nonexistent/pygb_compiled"));
  env_.emplace_back(new EnvGuard("PYGB_COMPILED_MAX_RESTARTS", "0"));
  auto& svc = CompileService::instance();
  svc.reset();

  // First attempt: spawn fails, and with a zero restart budget the service
  // breaker trips on the spot.
  const auto a1 = svc.compile(trivial_source("b1"), out_path("b1"), 0);
  EXPECT_FALSE(a1.serviced);
  EXPECT_NE(a1.note.find("breaker tripped"), std::string::npos) << a1.note;
  EXPECT_TRUE(svc.state().breaker_open);

  // Open breaker: short-circuit without another spawn attempt.
  const auto a2 = svc.compile(trivial_source("b2"), out_path("b2"), 0);
  EXPECT_FALSE(a2.serviced);
  EXPECT_NE(a2.note.find("breaker open"), std::string::npos) << a2.note;

  // The degradation ladder holds: compile_module() still succeeds via the
  // in-process fork/exec path. Service trouble costs latency, never
  // availability.
  const CompileResult cr =
      compile_module(trivial_source("ladder"), out_path("ladder"));
  EXPECT_TRUE(cr.ok) << cr.log;
  EXPECT_TRUE(fs::exists(out_path("ladder")));
}

TEST_F(CompileServiceTest, StaleProtocolWorkerIsRejectedNeverTrusted) {
  // The worker inherits PYGB_FAULTS and announces a wrong protocol version
  // in its handshake; the client must reject it outright (a stale binary
  // from an older build must not be trusted with requests).
  env_.emplace_back(
      new EnvGuard("PYGB_FAULTS", "compiled:stale_proto:p=1"));
  env_.emplace_back(new EnvGuard("PYGB_COMPILED_MAX_RESTARTS", "0"));
  auto& svc = CompileService::instance();
  svc.reset();
  faultinj::configure("");  // in-process sites stay disarmed

  const auto att = svc.compile(trivial_source("sp"), out_path("sp"), 0);
  EXPECT_FALSE(att.serviced);
  EXPECT_NE(att.note.find("version mismatch"), std::string::npos)
      << att.note;
  EXPECT_FALSE(svc.state().running);
}

// ---------------------------------------------------------------------------
// Background tiering: PYGB_TIER=async serves interp NOW, compiles behind.
// ---------------------------------------------------------------------------

class TierAsyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!compiler_available()) {
      GTEST_SKIP() << "no C++ compiler reachable";
    }
    auto& reg = Registry::instance();
    saved_mode_ = reg.mode();
    saved_dir_ = reg.cache_dir();
    scratch_ = (fs::temp_directory_path() /
                ("pygb_tier_test_" + std::to_string(::getpid())))
                   .string();
    fs::create_directories(scratch_);
    reg.set_cache_dir(scratch_ + "/cache");
    reg.clear_disk_cache();
    reg.set_mode(Mode::kAuto);
    reg.set_tier_async(true);
    reg.reset_stats();
  }
  void TearDown() override {
    auto& reg = Registry::instance();
    // Wait out any background build before yanking its scratch dir.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (reg.tier_pending_count() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    reg.set_tier_async(false);
    reg.clear_disk_cache();
    reg.set_cache_dir(saved_dir_);
    reg.set_mode(saved_mode_);
    std::error_code ec;
    fs::remove_all(scratch_, ec);
  }

  /// A compiler that cannot answer in under a second — proof that a call
  /// completing faster did not wait for it.
  fs::path write_slow_cxx() {
    const fs::path slow = fs::path(scratch_) / "slow_cxx.sh";
    write_file(slow,
               "#!/bin/sh\n"
               "case \"$*\" in *--version*) echo fake-g++ 1.0; exit 0;; "
               "esac\n"
               "sleep 1\n"
               "exec g++ \"$@\"\n");
    ::chmod(slow.c_str(), 0755);
    return slow;
  }

  /// uint16 mxm is outside the static set → kAuto must reach for the JIT.
  static std::int64_t uint16_mxm_corner() {
    Matrix a(2, 2, DType::kUInt16);
    a.set(0, 0, 3.0);
    a.set(0, 1, 2.0);
    a.set(1, 0, 5.0);
    Matrix c(2, 2, DType::kUInt16);
    c[None] = matmul(a, a);
    return c.get_element(0, 0).to_int64();
  }
  static constexpr std::int64_t kExpectedCorner = 3 * 3 + 2 * 5;

  Mode saved_mode_;
  std::string saved_dir_;
  std::string scratch_;
};

TEST_F(TierAsyncTest, ColdKeyServesInterpImmediatelyThenHotSwapsToJit) {
  auto& reg = Registry::instance();
  reg.clear_memory_cache();
  reg.reset_stats();

  EnvGuard cxx("PYGB_CXX", write_slow_cxx().string());
  ASSERT_TRUE(reg.compiler_available());

  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);  // correct, via interp
  const auto first_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(first_ms, 900) << "first call waited for the compiler";

  auto st = reg.stats();
  EXPECT_GE(st.tier_deferred_serves, 1u);
  EXPECT_GE(st.tier_async_compiles, 1u);
  EXPECT_GE(st.interp_dispatches, 1u);

  // The background build lands; subsequent calls hot-swap to the JIT
  // module from the memory cache — still correct.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool swapped = false;
  while (std::chrono::steady_clock::now() < deadline) {
    EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);
    if (reg.stats().memory_hits >= 1) {
      swapped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_TRUE(swapped) << "background tier build never landed";
  EXPECT_GE(reg.stats().compiles, 1u);
}

TEST_F(TierAsyncTest, RepeatColdCallsCoalesceOntoOneBackgroundBuild) {
  auto& reg = Registry::instance();
  reg.clear_memory_cache();
  reg.reset_stats();
  EnvGuard cxx("PYGB_CXX", write_slow_cxx().string());
  ASSERT_TRUE(reg.compiler_available());

  // Several cold calls in a burst: each serves interp, only ONE background
  // build is enqueued for the key.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);
  }
  EXPECT_GE(reg.stats().tier_deferred_serves, 4u);
  EXPECT_EQ(reg.stats().tier_async_compiles, 1u);
  EXPECT_LE(reg.tier_pending_count(), 1u);
}

}  // namespace
