// Tests: deadline-bounded, fault-injected JIT compilation — the sandboxed
// compiler subprocess (fork/execvp, wall-clock deadline, kill escalation,
// transient-retry), the per-key circuit breaker, bounded flock and waiter
// deadlines, and the pygb::faultinj chaos hooks. The end-to-end "a real
// hung child is killed within the deadline" property also has a
// cross-process ctest (tests/jit_timeout.sh, driving pygb_cli).
#include <gtest/gtest.h>

#include <sched.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gbtl/detail/parallel.hpp"
#include "gbtl/detail/pool.hpp"
#include "gbtl/gbtl.hpp"
#include "pygb/faultinj.hpp"
#include "pygb/governor.hpp"
#include "pygb/jit/breaker.hpp"
#include "pygb/jit/cache.hpp"
#include "pygb/jit/compiler.hpp"
#include "pygb/jit/subprocess.hpp"
#include "pygb/pygb.hpp"

namespace {

namespace fs = std::filesystem;
using namespace pygb;       // NOLINT
using namespace pygb::jit;  // NOLINT

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

void make_executable(const fs::path& path) { ::chmod(path.c_str(), 0755); }

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
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
// Subprocess runner unit tests (no compiler, no registry).
// ---------------------------------------------------------------------------

TEST(SubprocessRun, DecodesExitCode) {
  RunOptions opt;
  opt.argv = {"/bin/sh", "-c", "exit 7"};
  const RunOutcome ro = run_subprocess(opt);
  EXPECT_EQ(ro.status, RunStatus::kExitNonzero);
  EXPECT_EQ(ro.exit_code, 7);
  EXPECT_FALSE(ro.transient);
  EXPECT_EQ(ro.attempts, 1);
  EXPECT_NE(ro.describe().find("exit status 7"), std::string::npos);
}

TEST(SubprocessRun, WakesOnChildExitWhenPinnedToOneCpu) {
  // On one CPU the exiting child is preempted by its woken parent, whose
  // pipes are already closed: only the child's exit is left to wait for.
  // A runner that sleeps a poll floor then pays it on every run (~51 ms
  // with a 50 ms floor); one that polls a pidfd wakes when the child exits.
  cpu_set_t saved;
  ASSERT_EQ(::sched_getaffinity(0, sizeof saved, &saved), 0);
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved)) ++cpu;
  ASSERT_LT(cpu, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(::sched_setaffinity(0, sizeof one, &one), 0);  // this thread
  std::vector<double> ms;
  for (int i = 0; i < 20; ++i) {
    RunOptions opt;
    opt.argv = {"/bin/true"};
    opt.timeout_ms = 5000;
    const auto start = std::chrono::steady_clock::now();
    const RunOutcome ro = run_subprocess(opt);
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
    EXPECT_TRUE(ro.ok()) << ro.describe();
  }
  ::sched_setaffinity(0, sizeof saved, &saved);
  std::nth_element(ms.begin(), ms.begin() + 10, ms.end());
  EXPECT_LT(ms[10], 10.0);
}

TEST(SubprocessRun, CapturesStderrAndStdout) {
  RunOptions opt;
  opt.argv = {"/bin/sh", "-c", "echo out-words; echo err-words >&2"};
  opt.capture_stdout = true;
  const RunOutcome ro = run_subprocess(opt);
  EXPECT_TRUE(ro.ok());
  EXPECT_NE(ro.out.find("out-words"), std::string::npos);
  EXPECT_NE(ro.captured.find("err-words"), std::string::npos);
}

TEST(SubprocessRun, DeadlineKillsHungChildQuickly) {
  RunOptions opt;
  opt.argv = {"/bin/sleep", "86399"};
  opt.timeout_ms = 300;
  const auto start = std::chrono::steady_clock::now();
  const RunOutcome ro = run_subprocess(opt);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(ro.status, RunStatus::kTimeout);
  EXPECT_TRUE(ro.transient);  // the key is not doomed
  EXPECT_EQ(ro.term_signal, SIGTERM);
  EXPECT_LT(elapsed, 5000);
  EXPECT_NE(ro.describe().find("deadline exceeded"), std::string::npos);
}

TEST(SubprocessRun, SigtermImmuneChildEscalatesToSigkill) {
  RunOptions opt;
  opt.argv = {"/bin/sh", "-c", "trap '' TERM; sleep 86399"};
  opt.timeout_ms = 200;
  opt.kill_grace_ms = 200;
  const auto start = std::chrono::steady_clock::now();
  const RunOutcome ro = run_subprocess(opt);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(ro.status, RunStatus::kTimeout);
  EXPECT_EQ(ro.term_signal, SIGKILL);
  EXPECT_LT(elapsed, 5000);
}

TEST(SubprocessRun, SpawnFailureReportsErrno) {
  RunOptions opt;
  opt.argv = {"/nonexistent/pygb-no-such-binary"};
  const RunOutcome ro = run_subprocess(opt);
  EXPECT_EQ(ro.status, RunStatus::kSpawnFailed);
  EXPECT_EQ(ro.spawn_errno, ENOENT);
  EXPECT_NE(ro.describe().find("failed to launch"), std::string::npos);
}

TEST(SubprocessRun, SignaledChildIsTransientAndRetried) {
  RunOptions opt;
  opt.argv = {"/bin/sh", "-c", "kill -KILL $$"};
  opt.max_attempts = 3;
  opt.backoff_ms = 1;
  const RunOutcome ro = run_subprocess(opt);
  EXPECT_EQ(ro.status, RunStatus::kSignaled);
  EXPECT_TRUE(ro.transient);
  EXPECT_EQ(ro.attempts, 3);  // every attempt taken, all signaled
  EXPECT_NE(ro.captured.find("retrying"), std::string::npos);
}

TEST(SubprocessRun, SplitCommandSplitsOnWhitespace) {
  const auto words = split_command("  ccache   g++ -pipe ");
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], "ccache");
  EXPECT_EQ(words[1], "g++");
  EXPECT_EQ(words[2], "-pipe");
  EXPECT_TRUE(split_command("").empty());
}

TEST(SubprocessRun, CompilesSourceInPathWithSpaces) {
  if (!compiler_available()) GTEST_SKIP();
  // std::system-with-string-concat would have parsed this path as two
  // arguments; argv exec treats it as bytes.
  const auto dir = fs::temp_directory_path() /
                   ("pygb jit spaces " + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto src = dir / "with space.cpp";
  write_file(src, "extern \"C\" int pygb_probe() { return 7; }\n");
  const auto out = dir / "with space.so";
  const CompileResult cr = compile_module(src.string(), out.string());
  EXPECT_TRUE(cr.ok) << cr.log;
  EXPECT_TRUE(fs::exists(out));
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Fault-injection spec engine.
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesArmsAndDisarms) {
  faultinj::configure("compile:hang:p=1,dlopen:fail:p=0.5,seed=42");
  EXPECT_TRUE(faultinj::armed());
  EXPECT_EQ(faultinj::current_spec(),
            "compile:hang:p=1,dlopen:fail:p=0.5,seed=42");
  faultinj::configure("");
  EXPECT_FALSE(faultinj::armed());
  EXPECT_FALSE(faultinj::check(faultinj::site::kCompile));
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(faultinj::configure("compile"), std::invalid_argument);
  EXPECT_THROW(faultinj::configure("compile:explode"), std::invalid_argument);
  EXPECT_THROW(faultinj::configure("compile:fail:p=2"), std::invalid_argument);
  EXPECT_THROW(faultinj::configure("compile:fail:q=1"), std::invalid_argument);
  EXPECT_THROW(faultinj::configure("compiled:fail"), std::invalid_argument);
  EXPECT_THROW(faultinj::configure("nosuch:hang"), std::invalid_argument);
  EXPECT_THROW(faultinj::configure("compile:crash"), std::invalid_argument);
  faultinj::configure("");
}

TEST(FaultSpec, DrawsAreDeterministicForASeed) {
  std::vector<bool> first;
  faultinj::configure("flock:fail:p=0.5,seed=7");
  for (int i = 0; i < 64; ++i) first.push_back(bool(faultinj::check("flock")));
  faultinj::configure("flock:fail:p=0.5,seed=7");
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(bool(faultinj::check("flock")),
              first[static_cast<std::size_t>(i)])
        << "draw " << i << " diverged";
  }
  // p=0.5 over 64 draws fires sometimes and spares sometimes.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
  faultinj::configure("");
}

TEST(FaultSpec, BudgetLimitsFires) {
  faultinj::configure("flock:fail:n=2");
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    if (faultinj::check("flock")) ++fired;
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(faultinj::fired_count(), 2u);
  faultinj::configure("");
}

TEST(FaultSpec, PoolSubmitFaultPropagatesToCaller) {
  faultinj::configure("pool_submit:fail:p=1:n=1");
  EXPECT_THROW(gbtl::detail::pool_parallel_for(
                   64, [](void*, gbtl::IndexType, gbtl::IndexType) {}, nullptr),
               std::runtime_error);
  // Budget exhausted: the pool is healthy again.
  gbtl::detail::pool_parallel_for(
      64, [](void*, gbtl::IndexType, gbtl::IndexType) {}, nullptr);
  faultinj::configure("");
}

// ---------------------------------------------------------------------------
// Bounded flock.
// ---------------------------------------------------------------------------

TEST(BoundedFlock, TimesOutAgainstALiveHolderThenAcquires) {
  const auto dir = fs::temp_directory_path() /
                   ("pygb_flock_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "stem.lock").string();

  const int holder = ::open(path.c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(holder, 0);
  ASSERT_EQ(::flock(holder, LOCK_EX), 0);

  const auto start = std::chrono::steady_clock::now();
  {
    FileLock contender(path, 150);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_FALSE(contender.held());
    EXPECT_TRUE(contender.timed_out());
    EXPECT_GE(elapsed, 150);
    EXPECT_LT(elapsed, 5000);
  }

  ::flock(holder, LOCK_UN);
  ::close(holder);
  FileLock after(path, 1000);
  EXPECT_TRUE(after.held());
  EXPECT_FALSE(after.timed_out());
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Registry-level chaos: fixture with a private cache dir per test.
// ---------------------------------------------------------------------------

class JitFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!compiler_available()) {
      GTEST_SKIP() << "no C++ compiler reachable; chaos tests skipped";
    }
    auto& reg = Registry::instance();
    saved_mode_ = reg.mode();
    saved_dir_ = reg.cache_dir();
    scratch_ = (fs::temp_directory_path() /
                ("pygb_faults_test_" + std::to_string(::getpid())))
                   .string();
    cache_dir_ = scratch_ + "/cache";
    fs::create_directories(scratch_);
    reg.set_cache_dir(cache_dir_);
    reg.clear_disk_cache();
    reg.set_mode(Mode::kAuto);
    reg.reset_stats();
  }
  void TearDown() override {
    faultinj::configure("");
    auto& reg = Registry::instance();
    reg.clear_disk_cache();
    reg.set_cache_dir(saved_dir_);
    reg.set_mode(saved_mode_);
    std::error_code ec;
    fs::remove_all(scratch_, ec);
  }

  /// A compiler that answers --version then acts per the body lines.
  fs::path write_fake_cxx(const std::string& name, const std::string& body) {
    const fs::path fake = fs::path(scratch_) / name;
    write_file(fake,
               "#!/bin/sh\n"
               "case \"$*\" in *--version*) echo fake-g++ 1.0; exit 0;; esac\n" +
                   body);
    make_executable(fake);
    return fake;
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
  std::string cache_dir_;
};

TEST_F(JitFaultsTest, HangingCompilerTimesOutAndFallsBackToInterp) {
  const auto fake = write_fake_cxx("hang_cxx.sh", "exec sleep 86399\n");
  EnvGuard cxx("PYGB_CXX", fake.string());
  EnvGuard timeout("PYGB_JIT_TIMEOUT_MS", "1500");
  EnvGuard retries("PYGB_JIT_RETRIES", "0");
  auto& reg = Registry::instance();
  reg.clear_memory_cache();
  reg.reset_stats();
  ASSERT_TRUE(reg.compiler_available());

  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);  // via the interpreter
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  // The acceptance bound: deadline + 2s grace, with scheduling slack.
  EXPECT_LT(elapsed, 1500 + 2000 + 3000);

  const auto st = reg.stats();
  EXPECT_EQ(st.compiles, 1u);
  EXPECT_GE(st.jit_timeouts, 1u);
  EXPECT_GE(st.jit_fallbacks, 1u);
  EXPECT_GE(st.interp_dispatches, 1u);

  // Killed-compile hygiene: no orphaned .tmp output; the .log persists
  // and explains the kill.
  EXPECT_TRUE(list_with_suffix(cache_dir_, ".tmp").empty());
  const auto logs = list_with_suffix(cache_dir_, ".log");
  ASSERT_FALSE(logs.empty());
  const std::string log = read_file(logs.front());
  EXPECT_NE(log.find("killed after"), std::string::npos) << log;
  EXPECT_NE(log.find("PYGB_JIT_TIMEOUT_MS"), std::string::npos) << log;
}

TEST_F(JitFaultsTest, TransientFailureIsRetriedToSuccess) {
  // Self-SIGTERMs on the first compile (signaled → transient → retried),
  // then execs the real compiler.
  const fs::path counter = fs::path(scratch_) / "attempts";
  const auto fake = write_fake_cxx(
      "flaky_cxx.sh",
      "c=$(cat '" + counter.string() + "' 2>/dev/null || echo 0)\n"
      "echo $((c+1)) > '" + counter.string() + "'\n"
      "if [ \"$c\" -lt 1 ]; then kill -TERM $$; fi\n"
      "exec g++ \"$@\"\n");
  EnvGuard cxx("PYGB_CXX", fake.string());
  EnvGuard retries("PYGB_JIT_RETRIES", "2");
  auto& reg = Registry::instance();
  reg.clear_memory_cache();
  reg.reset_stats();

  EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);
  const auto st = reg.stats();
  EXPECT_EQ(st.compiles, 1u);       // one compile_module call…
  EXPECT_GE(st.jit_retries, 1u);    // …with an internal retry
  EXPECT_EQ(st.jit_fallbacks, 0u);  // no degradation: the retry healed it
}

TEST_F(JitFaultsTest, BreakerOpensAfterConsecutiveTransientFailures) {
  const auto fake = write_fake_cxx("dying_cxx.sh", "kill -TERM $$\n");
  EnvGuard cxx("PYGB_CXX", fake.string());
  EnvGuard retries("PYGB_JIT_RETRIES", "0");
  EnvGuard threshold("PYGB_BREAKER_THRESHOLD", "2");
  auto& reg = Registry::instance();
  reg.clear_memory_cache();  // also re-reads the breaker env knobs
  reg.reset_stats();

  // Failures 1 and 2 each attempt a compile; failure 2 crosses the
  // threshold and opens the circuit.
  EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);
  EXPECT_EQ(reg.stats().compiles, 1u);
  EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);
  EXPECT_EQ(reg.stats().compiles, 2u);
  EXPECT_GE(reg.stats().breaker_opens, 1u);

  // Open circuit: straight to the interpreter, no compile attempt.
  EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);
  const auto st = reg.stats();
  EXPECT_EQ(st.compiles, 2u);
  EXPECT_GE(st.breaker_short_circuits, 1u);
  EXPECT_GE(st.jit_fallbacks, 3u);
}

TEST_F(JitFaultsTest, BreakerHalfOpenProbeHeals) {
  const fs::path flag = fs::path(scratch_) / "broken";
  write_file(flag, "x");
  const auto fake = write_fake_cxx(
      "healing_cxx.sh",
      "if [ -e '" + flag.string() + "' ]; then kill -TERM $$; fi\n"
      "exec g++ \"$@\"\n");
  EnvGuard cxx("PYGB_CXX", fake.string());
  EnvGuard retries("PYGB_JIT_RETRIES", "0");
  EnvGuard threshold("PYGB_BREAKER_THRESHOLD", "1");
  EnvGuard ttl("PYGB_BREAKER_TTL_MS", "200");
  auto& reg = Registry::instance();
  reg.clear_memory_cache();
  reg.reset_stats();

  EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);  // transient fail → open
  EXPECT_EQ(reg.stats().compiles, 1u);
  EXPECT_GE(reg.stats().breaker_opens, 1u);
  EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);  // open → short-circuit
  EXPECT_EQ(reg.stats().compiles, 1u);

  // The environment heals; after the TTL one caller carries a probe.
  fs::remove(flag);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);
  const auto st = reg.stats();
  EXPECT_EQ(st.compiles, 2u);  // the probe compiled for real
  EXPECT_GE(st.breaker_probes, 1u);
  // Healed: subsequent calls hit the JIT module from memory.
  EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);
  EXPECT_EQ(reg.stats().compiles, 2u);
  EXPECT_EQ(reg.stats().jit_fallbacks, 2u);  // only the two failures
}

TEST_F(JitFaultsTest, CoalescedWaitersAreDeadlineBounded) {
  const auto fake = write_fake_cxx("hang2_cxx.sh", "exec sleep 86399\n");
  EnvGuard cxx("PYGB_CXX", fake.string());
  EnvGuard timeout("PYGB_JIT_TIMEOUT_MS", "1000");
  EnvGuard retries("PYGB_JIT_RETRIES", "0");
  auto& reg = Registry::instance();
  reg.clear_memory_cache();
  reg.reset_stats();
  ASSERT_TRUE(reg.compiler_available());

  // One leader hangs in the compile; the others coalesce onto its
  // in-flight record. EVERY thread must complete within deadline + grace
  // — nobody is parked on an unbounded wait.
  constexpr int kThreads = 4;
  std::atomic<int> correct{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      if (uint16_mxm_corner() == kExpectedCorner) ++correct;
    });
  }
  for (auto& t : threads) t.join();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(correct.load(), kThreads);
  EXPECT_LT(elapsed, 1000 + 2000 + 3000);  // deadline + grace + slack
  EXPECT_GE(reg.stats().jit_timeouts, 1u);
  EXPECT_GE(reg.stats().jit_fallbacks, 1u);
}

TEST_F(JitFaultsTest, InjectedCompileHangFallsBackWithinDeadline) {
  auto& reg = Registry::instance();
  {
    // The real compiler, but the faultinj hook parks the forked child
    // before exec — exercising the genuine kill/reap machinery.
    EnvGuard timeout("PYGB_JIT_TIMEOUT_MS", "800");
    EnvGuard retries("PYGB_JIT_RETRIES", "0");
    faultinj::configure("compile:hang:p=1");
    reg.clear_memory_cache();
    reg.reset_stats();

    EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);
    EXPECT_GE(reg.stats().jit_timeouts, 1u);
    EXPECT_GE(reg.stats().jit_fallbacks, 1u);
    EXPECT_GE(faultinj::fired_count(), 1u);
  }

  // Disarmed (and back on the default deadline), the same key compiles
  // and dispatches through the JIT.
  faultinj::configure("");
  reg.clear_memory_cache();
  reg.reset_stats();
  EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);
  EXPECT_EQ(reg.stats().compiles, 1u);
  EXPECT_EQ(reg.stats().jit_fallbacks, 0u);
}

TEST_F(JitFaultsTest, InjectedDlopenFailureDegradesAndHeals) {
  faultinj::configure("dlopen:fail:p=1");
  auto& reg = Registry::instance();
  reg.clear_memory_cache();
  reg.reset_stats();

  EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);  // interp fallback
  EXPECT_GE(reg.stats().jit_fallbacks, 1u);
  EXPECT_GE(faultinj::fired_count(), 1u);

  faultinj::configure("");
  reg.clear_memory_cache();
  reg.reset_stats();
  EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);
  EXPECT_EQ(reg.stats().jit_fallbacks, 0u);
}

TEST_F(JitFaultsTest, InjectedPublishCorruptionIsQuarantined) {
  faultinj::configure("cache_publish:corrupt:p=1,seed=1");
  auto& reg = Registry::instance();
  reg.clear_memory_cache();
  reg.reset_stats();

  // The compile succeeds but the published bytes are garbled: the stamp
  // scan must reject and quarantine them, never dlopen them.
  EXPECT_EQ(uint16_mxm_corner(), kExpectedCorner);
  EXPECT_GE(reg.stats().cache_quarantines, 1u);
  EXPECT_GE(reg.stats().jit_fallbacks, 1u);
  EXPECT_FALSE(list_with_suffix(cache_dir_, ".bad").empty());
  faultinj::configure("");
}

TEST_F(JitFaultsTest, HeldLockFallsBackToPrivateCompile) {
  // A peer wedged while HOLDING the stem lock must cost coalescing, not
  // liveness: after PYGB_LOCK_TIMEOUT_MS the compile proceeds privately.
  EnvGuard lock_timeout("PYGB_LOCK_TIMEOUT_MS", "200");
  auto& reg = Registry::instance();
  reg.set_mode(Mode::kJit);
  reg.clear_memory_cache();
  reg.reset_stats();

  OpRequest req;
  req.func = func::kMxM;
  req.a = DType::kUInt16;
  req.b = DType::kUInt16;
  req.semiring = MinPlusSemiring();
  const std::string key = req.key();
  fs::create_directories(cache_dir_);
  const std::string lock_path =
      (fs::path(cache_dir_) / (module_stem(key) + ".lock")).string();
  const int holder = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(holder, 0);
  ASSERT_EQ(::flock(holder, LOCK_EX), 0);

  ResolveInfo info;
  KernelFn fn = reg.get(req, &info);
  EXPECT_NE(fn, nullptr);
  EXPECT_STREQ(info.backend, "jit-compile");
  EXPECT_GE(reg.stats().lock_timeouts, 1u);

  ::flock(holder, LOCK_UN);
  ::close(holder);
}

TEST_F(JitFaultsTest, BreakerStateIsObservable) {
  auto& reg = Registry::instance();
  CircuitBreaker& breaker = reg.breaker();
  EXPECT_EQ(breaker.state("some-key"), BreakerState::kClosed);
  breaker.on_failure("some-key", /*transient=*/false, "broken toolchain");
  EXPECT_EQ(breaker.state("some-key"), BreakerState::kOpen);
  const std::string desc = breaker.describe("some-key");
  EXPECT_NE(desc.find("open"), std::string::npos);
  EXPECT_NE(desc.find("permanent"), std::string::npos);
  EXPECT_NE(desc.find("broken toolchain"), std::string::npos);
  EXPECT_EQ(breaker.acquire("some-key"),
            CircuitBreaker::Decision::kShortCircuit);
  breaker.on_success("some-key");
  EXPECT_EQ(breaker.state("some-key"), BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// Governor chaos: resource aborts mid-kernel with the pool fanned out.
// ---------------------------------------------------------------------------

class GovernorChaos : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_threads_ = gbtl::detail::num_threads();
    governor::set_mem_limit_bytes(0);
    faultinj::configure("");
  }
  void TearDown() override {
    governor::set_mem_limit_bytes(0);
    faultinj::configure("");
    gbtl::detail::set_num_threads(saved_threads_);
  }

  static gbtl::Matrix<double> band_matrix(gbtl::IndexType n) {
    gbtl::Matrix<double> m(n, n);
    for (gbtl::IndexType i = 0; i < n; ++i) {
      for (gbtl::IndexType d = 0; d < 4; ++d) {
        m.setElement(i, (i + d) % n, static_cast<double>(i + d + 1));
      }
    }
    return m;
  }

  unsigned saved_threads_ = 1;
};

TEST_F(GovernorChaos, BudgetExhaustionMidMxmAtFourThreads) {
  // Budget sized so mxm's up-front row-table charge fits but the first
  // per-worker SpA accumulator charge does not: the abort happens with all
  // four workers live inside the kernel. The first exception wins, the
  // pool stays healthy, and the output is untouched.
  constexpr gbtl::IndexType kN = 512;
  const auto a = band_matrix(kN);
  const auto b = band_matrix(kN);
  gbtl::detail::set_num_threads(4);

  gbtl::Matrix<double> c(kN, kN);
  const std::uint64_t row_table = kN * sizeof(gbtl::Matrix<double>::Row);
  const std::uint64_t spa = kN * (sizeof(double) + 1);
  governor::set_mem_limit_bytes(row_table + spa / 2);
  EXPECT_THROW(gbtl::mxm(c, gbtl::NoMask{}, gbtl::NoAccumulate{},
                         gbtl::ArithmeticSemiring<double>{}, a, b),
               governor::ResourceExhausted);
  EXPECT_EQ(c.nvals(), 0u);  // strong guarantee
  // No charge leaked out of the unwind.
  EXPECT_EQ(governor::stats().mem_current_bytes, 0u);

  // Budget reset => the same op succeeds, and matches the single-thread
  // reference bit-for-bit (the pool survived the mid-flight unwind).
  governor::set_mem_limit_bytes(0);
  gbtl::mxm(c, gbtl::NoMask{}, gbtl::NoAccumulate{},
            gbtl::ArithmeticSemiring<double>{}, a, b);
  gbtl::detail::set_num_threads(1);
  gbtl::Matrix<double> ref(kN, kN);
  gbtl::mxm(ref, gbtl::NoMask{}, gbtl::NoAccumulate{},
            gbtl::ArithmeticSemiring<double>{}, a, b);
  EXPECT_TRUE(c == ref);
}

TEST_F(GovernorChaos, InjectedGovernorFaultMidMxmAtFourThreads) {
  // Same shape driven by the faultinj site instead of a real budget: the
  // Nth checkpoint fires inside the row loop with the pool fanned out.
  constexpr gbtl::IndexType kN = 256;
  const auto a = band_matrix(kN);
  const auto b = band_matrix(kN);
  gbtl::detail::set_num_threads(4);

  gbtl::Matrix<double> c(kN, kN);
  faultinj::configure("governor:fail:n=1");
  EXPECT_THROW(gbtl::mxm(c, gbtl::NoMask{}, gbtl::NoAccumulate{},
                         gbtl::ArithmeticSemiring<double>{}, a, b),
               governor::ResourceExhausted);
  EXPECT_EQ(c.nvals(), 0u);
  faultinj::configure("");

  gbtl::mxm(c, gbtl::NoMask{}, gbtl::NoAccumulate{},
            gbtl::ArithmeticSemiring<double>{}, a, b);
  EXPECT_EQ(c.nrows(), kN);
  EXPECT_GT(c.nvals(), 0u);
}

}  // namespace
