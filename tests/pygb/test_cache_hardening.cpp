// Tests: the hardened disk tier of the Fig. 9 module cache — atomic
// publish, stamp verification with quarantine, auto-mode degradation to
// the interpreter, size-capped eviction, and litter cleanup. The
// cross-process coalescing path has its own ctest (cross_process_cache.sh,
// driving two concurrent pygb_cli processes).
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "pygb/jit/cache.hpp"
#include "pygb/jit/codegen.hpp"
#include "pygb/jit/compiler.hpp"
#include "pygb/jit/loader.hpp"
#include "pygb/jit/subprocess.hpp"
#include "pygb/pygb.hpp"

namespace {

namespace fs = std::filesystem;
using namespace pygb;       // NOLINT
using namespace pygb::jit;  // NOLINT

std::vector<fs::path> list_with_extension(const std::string& dir,
                                          const std::string& ext) {
  std::vector<fs::path> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ext) out.push_back(entry.path());
  }
  return out;
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

void make_executable(const fs::path& path) {
  ::chmod(path.c_str(), 0755);
}

/// PYGB_INCLUDE_DIR for one test body; restores it (and drops the header
/// digests hashed meanwhile) on the way out, failed assertions included.
class IncludeDirGuard {
 public:
  explicit IncludeDirGuard(const std::string& dir) {
    if (const char* old = std::getenv("PYGB_INCLUDE_DIR")) old_ = old;
    ::setenv("PYGB_INCLUDE_DIR", dir.c_str(), 1);
  }
  ~IncludeDirGuard() {
    if (old_) {
      ::setenv("PYGB_INCLUDE_DIR", old_->c_str(), 1);
    } else {
      ::unsetenv("PYGB_INCLUDE_DIR");
    }
    forget_header_digests();
  }

 private:
  std::optional<std::string> old_;
};

class CacheHardeningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!compiler_available()) {
      GTEST_SKIP() << "no C++ compiler reachable; cache tests skipped";
    }
    auto& reg = Registry::instance();
    saved_mode_ = reg.mode();
    saved_dir_ = reg.cache_dir();
    scratch_ = (fs::temp_directory_path() /
                ("pygb_cache_test_" + std::to_string(::getpid())))
                   .string();
    cache_dir_ = scratch_ + "/cache";
    fs::create_directories(scratch_);
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
    std::error_code ec;
    fs::remove_all(scratch_, ec);
  }

  Mode saved_mode_;
  std::string saved_dir_;
  std::string scratch_;
  std::string cache_dir_;
};

TEST_F(CacheHardeningTest, TruncatedModuleQuarantinedAndRecompiled) {
  Matrix a({{1, 2}, {3, 4}});
  Matrix c(2, 2);
  auto& reg = Registry::instance();

  c[None] = matmul(a, a);
  ASSERT_EQ(reg.stats().compiles, 1u);

  // Corrupt the published .so — a crashed writer or disk corruption. The
  // corruption replaces the file (new inode) rather than truncating in
  // place: the first dlopen may still have the old inode mmapped, and
  // shrinking a mapped file turns reads into SIGBUS.
  const auto sos = list_with_extension(cache_dir_, ".so");
  ASSERT_EQ(sos.size(), 1u);
  fs::remove(sos[0]);
  write_file(sos[0], "not an ELF object and carries no stamp");
  reg.clear_memory_cache();

  // Never crash, never run garbage: quarantine + recompile.
  c[None] = matmul(a, a);
  const auto st = reg.stats();
  EXPECT_EQ(st.compiles, 2u);
  EXPECT_EQ(st.cache_quarantines, 1u);
  EXPECT_DOUBLE_EQ(c.get(0, 0), 7.0);
  EXPECT_FALSE(list_with_extension(cache_dir_, ".bad").empty());
}

TEST_F(CacheHardeningTest, StampMismatchQuarantinedAndRecompiled) {
  // Plant a module at the exact published path whose embedded stamp is
  // wrong — what a key-hash collision or stale cache schema looks like.
  OpRequest req;
  req.func = func::kMxM;
  req.a = DType::kFP64;
  req.b = DType::kFP64;
  req.semiring = MinPlusSemiring();
  const std::string key = req.key();

  fs::create_directories(cache_dir_);
  const fs::path so_path = fs::path(cache_dir_) / (module_stem(key) + ".so");
  const fs::path src_path = fs::path(scratch_) / "bogus.cpp";
  write_file(src_path, generate_source(req, "bogus-stamp"));
  ASSERT_TRUE(compile_module(src_path.string(), so_path.string()).ok);

  auto& reg = Registry::instance();
  reg.reset_stats();
  ResolveInfo info;
  KernelFn fn = reg.get(req, &info);
  ASSERT_NE(fn, nullptr);
  const auto st = reg.stats();
  EXPECT_STREQ(info.backend, "jit-compile");  // planted file NOT trusted
  EXPECT_EQ(st.cache_quarantines, 1u);
  EXPECT_EQ(st.compiles, 1u);
  EXPECT_TRUE(fs::exists(so_path.string() + ".bad"));
}

TEST_F(CacheHardeningTest, ValidDiskModuleStillVerifiesAndLoads) {
  Matrix a({{1, 2}, {3, 4}});
  Matrix c(2, 2);
  auto& reg = Registry::instance();
  c[None] = matmul(a, a);
  reg.clear_memory_cache();
  c[None] = matmul(a, a);
  const auto st = reg.stats();
  EXPECT_EQ(st.compiles, 1u);
  EXPECT_EQ(st.disk_hits, 1u);
  EXPECT_EQ(st.cache_quarantines, 0u);
  EXPECT_DOUBLE_EQ(c.get(0, 0), 7.0);
}

TEST_F(CacheHardeningTest, AutoModeDegradesToInterpreterOnFailedCompile) {
  // A compiler that answers --version but fails every compile: auto mode
  // must produce correct results via the interpreter, count the
  // degradation, and negative-cache the key (no compile storm).
  const fs::path fake = fs::path(scratch_) / "fake_cxx.sh";
  write_file(fake,
             "#!/bin/sh\n"
             "case \"$*\" in *--version*) echo fake-g++ 1.0; exit 0;; esac\n"
             "echo 'fake compiler always fails' >&2\n"
             "exit 1\n");
  make_executable(fake);
  const char* saved_cxx = std::getenv("PYGB_CXX");
  const std::string saved_cxx_value = saved_cxx ? saved_cxx : "";
  ::setenv("PYGB_CXX", fake.c_str(), 1);

  auto& reg = Registry::instance();
  reg.set_mode(Mode::kAuto);
  reg.clear_memory_cache();  // also clears the negative cache
  reg.reset_stats();
  ASSERT_TRUE(reg.compiler_available());  // the fake probe passes

  // uint16 mxm is outside the static set → auto reaches for the JIT.
  Matrix a(2, 2, DType::kUInt16);
  a.set(0, 0, 3.0);
  a.set(0, 1, 2.0);
  a.set(1, 0, 5.0);
  Matrix c(2, 2, DType::kUInt16);
  c[None] = matmul(a, a);  // must NOT throw mid-algorithm
  EXPECT_EQ(c.get_element(0, 0).to_int64(), 3 * 3 + 2 * 5);
  auto st = reg.stats();
  EXPECT_EQ(st.compiles, 1u);  // one doomed attempt
  EXPECT_GE(st.jit_fallbacks, 1u);
  EXPECT_GE(st.interp_dispatches, 1u);

  // Same key again: the negative cache skips the doomed compile entirely.
  c[None] = matmul(a, a);
  st = reg.stats();
  EXPECT_EQ(st.compiles, 1u);
  EXPECT_GE(st.jit_fallbacks, 2u);
  EXPECT_EQ(c.get_element(0, 0).to_int64(), 3 * 3 + 2 * 5);

  if (saved_cxx != nullptr) {
    ::setenv("PYGB_CXX", saved_cxx_value.c_str(), 1);
  } else {
    ::unsetenv("PYGB_CXX");
  }
}

TEST_F(CacheHardeningTest, JitModeStillThrowsOnFailedCompile) {
  const fs::path fake = fs::path(scratch_) / "fake_cxx2.sh";
  write_file(fake,
             "#!/bin/sh\n"
             "case \"$*\" in *--version*) echo fake-g++ 1.0; exit 0;; esac\n"
             "exit 1\n");
  make_executable(fake);
  const char* saved_cxx = std::getenv("PYGB_CXX");
  const std::string saved_cxx_value = saved_cxx ? saved_cxx : "";
  ::setenv("PYGB_CXX", fake.c_str(), 1);

  Matrix a(2, 2, DType::kUInt16);
  a.set(0, 0, 1.0);
  Matrix c(2, 2, DType::kUInt16);
  EXPECT_THROW(c[None] = matmul(a, a), NoKernelError);

  if (saved_cxx != nullptr) {
    ::setenv("PYGB_CXX", saved_cxx_value.c_str(), 1);
  } else {
    ::unsetenv("PYGB_CXX");
  }
}

TEST_F(CacheHardeningTest, EvictionKeepsCacheWithinMaxBytes) {
  ::setenv("PYGB_CACHE_MAX_BYTES", "1", 1);
  Matrix a({{1, 2}, {3, 4}});
  Matrix c64(2, 2);
  c64[None] = matmul(a, a);  // module 1 published (sole module: kept)
  EXPECT_EQ(list_with_extension(cache_dir_, ".so").size(), 1u);

  Matrix a32(2, 2, DType::kFP32);
  a32.set(0, 0, 2.0);
  Matrix c32(2, 2, DType::kFP32);
  c32[None] = matmul(a32, a32);  // module 2 published → module 1 evicted
  EXPECT_EQ(list_with_extension(cache_dir_, ".so").size(), 1u);
  EXPECT_DOUBLE_EQ(c32.get(0, 0), 4.0);
  ::unsetenv("PYGB_CACHE_MAX_BYTES");
}

TEST_F(CacheHardeningTest, StaleLitterCleanedFreshLitterKept) {
  fs::create_directories(cache_dir_);
  const fs::path stale_tmp = fs::path(cache_dir_) / "pygb_x.so.123.tmp";
  const fs::path stale_log = fs::path(cache_dir_) / "pygb_x.so.123.tmp.log";
  const fs::path fresh_tmp = fs::path(cache_dir_) / "pygb_y.so.456.tmp";
  const fs::path module = fs::path(cache_dir_) / "pygb_z.so";
  for (const auto& p : {stale_tmp, stale_log, fresh_tmp, module}) {
    write_file(p, "x");
  }
  const auto old_time =
      fs::file_time_type::clock::now() - std::chrono::hours(2);
  fs::last_write_time(stale_tmp, old_time);
  fs::last_write_time(stale_log, old_time);

  EXPECT_EQ(clean_cache_litter(cache_dir_), 2u);
  EXPECT_FALSE(fs::exists(stale_tmp));
  EXPECT_FALSE(fs::exists(stale_log));
  EXPECT_TRUE(fs::exists(fresh_tmp));  // may belong to a live compile
  EXPECT_TRUE(fs::exists(module));     // modules are never litter
}

TEST_F(CacheHardeningTest, StemAndStampCoverEnvironment) {
  const std::string stamp = cache_stamp();
  EXPECT_NE(stamp.find("pygb-cache-v"), std::string::npos);
  EXPECT_NE(stamp.find(compiler_identity()), std::string::npos);
  EXPECT_NE(stamp.find(compile_flags()), std::string::npos);
  EXPECT_NE(module_stamp("k1"), module_stamp("k2"));
  EXPECT_NE(module_stem("k1"), module_stem("k2"));
  EXPECT_EQ(module_stem("k1"), module_stem("k1"));
}

TEST_F(CacheHardeningTest, HeaderEditRefusesOldModuleAndDefaultPch) {
  // A private copy of every header the stamp covers, used through
  // PYGB_INCLUDE_DIR: the default tree's PCH is not for these headers.
  const fs::path include = fs::path(scratch_) / "include";
  for (const char* sub : kStampedHeaderDirs) {
    const fs::path from = fs::path(source_include_dir()) / sub;
    for (const auto& entry : fs::recursive_directory_iterator(from)) {
      if (entry.path().extension() != ".hpp") continue;
      const fs::path to = include / entry.path().lexically_relative(
                                        source_include_dir());
      fs::create_directories(to.parent_path());
      fs::copy_file(entry.path(), to);
    }
  }
  IncludeDirGuard guard(include.string());

  EXPECT_EQ(active_pch_dir(), "");
  for (const std::string& arg :
       module_compile_argv(compiler_command(), compile_flags(),
                           include.string(), "m.cpp", "m.so")) {
    EXPECT_EQ(arg.find(jit_pch_root()), std::string::npos) << arg;
  }

  OpRequest req;
  req.func = func::kMxM;
  req.a = DType::kFP64;
  req.b = DType::kFP64;
  req.semiring = MinPlusSemiring();
  auto& reg = Registry::instance();
  ResolveInfo info;
  ASSERT_NE(reg.get(req, &info), nullptr);
  EXPECT_STREQ(info.backend, "jit-compile");
  const std::string old_stamp = cache_stamp();
  const fs::path old_so =
      fs::path(cache_dir_) / (module_stem(req.key()) + ".so");
  ASSERT_TRUE(fs::exists(old_so));

  // One edited header: what a later process built from it would see.
  {
    std::ofstream out(include / "gbtl" / "gbtl.hpp", std::ios::app);
    out << "\n// edited\n";
  }
  forget_header_digests();
  EXPECT_NE(cache_stamp(), old_stamp);
  EXPECT_NE(fs::path(cache_dir_) / (module_stem(req.key()) + ".so"), old_so);
  std::string err;
  EXPECT_EQ(load_kernel(old_so.string(), &err, module_stamp(req.key())),
            nullptr);
  reg.clear_memory_cache();
  reg.reset_stats();
  ASSERT_NE(reg.get(req, &info), nullptr);
  EXPECT_STREQ(info.backend, "jit-compile");  // the old module is not used
  EXPECT_EQ(reg.stats().compiles, 1u);
}

TEST(CacheCodegenStamp, EmittedOnlyWhenRequested) {
  OpRequest req;
  req.func = func::kApplyV;
  req.a = DType::kFP64;
  req.unary_op = UnaryOp("Identity");
  const std::string plain = generate_source(req);
  EXPECT_EQ(plain.find("pygb_module_stamp"), std::string::npos);
  const std::string stamped = generate_source(req, "line1\"quoted\\x");
  EXPECT_NE(stamped.find("extern \"C\" const char pygb_module_stamp[]"),
            std::string::npos);
  EXPECT_NE(stamped.find("line1\\\"quoted\\\\x"), std::string::npos);
}

TEST(CacheCompiler, DecodesExitStatusAndDropsLogOnSuccess) {
  if (!compiler_available()) GTEST_SKIP();
  const auto dir = fs::temp_directory_path() /
                   ("pygb_compiler_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  // Success: no .log litter left behind.
  const auto good_src = dir / "good.cpp";
  write_file(good_src, "extern \"C\" int pygb_probe() { return 7; }\n");
  const auto good_so = dir / "good.so";
  ASSERT_TRUE(compile_module(good_src.string(), good_so.string()).ok);
  EXPECT_FALSE(fs::exists(good_so.string() + ".log"));

  // A compiler exiting 42: the decoded status is reported, not the raw
  // wait(2) word (42 << 8 = 10752 before the fix).
  const auto fake = dir / "exit42.sh";
  write_file(fake, "#!/bin/sh\nexit 42\n");
  make_executable(fake);
  const char* saved_cxx = std::getenv("PYGB_CXX");
  const std::string saved_cxx_value = saved_cxx ? saved_cxx : "";
  ::setenv("PYGB_CXX", fake.c_str(), 1);
  const auto result =
      compile_module(good_src.string(), (dir / "bad.so").string());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.log.find("exit status 42"), std::string::npos);
  if (saved_cxx != nullptr) {
    ::setenv("PYGB_CXX", saved_cxx_value.c_str(), 1);
  } else {
    ::unsetenv("PYGB_CXX");
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CacheCompiler, RuntimeArgvUsesTheBuildTimePch) {
  if (!compiler_available()) GTEST_SKIP();
  if (std::getenv("PYGB_CXX") != nullptr ||
      std::getenv("PYGB_INCLUDE_DIR") != nullptr) {
    GTEST_SKIP() << "the build-time PCH is for the default compiler and "
                    "include dir";
  }
  const std::string pch = active_pch_dir();
  ASSERT_FALSE(pch.empty()) << "no PCH at " << jit_pch_dir()
                            << " (target pygb_jit_pch)";
  EXPECT_EQ(pch.rfind(jit_pch_root(), 0), 0u);

  const auto dir = fs::temp_directory_path() /
                   ("pygb_pch_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  // Single-op modules (apply_v, assign_vs) include the light header and
  // an algo_* module glue.hpp; each header has its own PCH in the stamp
  // directory.
  OpRequest thin;
  thin.func = func::kApplyV;
  thin.a = DType::kFP64;
  thin.unary_op = UnaryOp("Identity");
  OpRequest assign;
  assign.func = func::kAssignVS;
  OpRequest glue;
  glue.func = func::kAlgoSssp;
  glue.a = DType::kFP64;
  for (const auto& [req, gch] : {std::pair{thin, kThinPchFile},
                                 std::pair{assign, kThinPchFile},
                                 std::pair{glue, kPchFile}}) {
    SCOPED_TRACE(req.func);
    write_file(dir / "m.cpp", generate_source(req, "pch-test"));
    RunOptions opt;
    opt.argv = module_compile_argv(compiler_command(), compile_flags(),
                                   source_include_dir(),
                                   (dir / "m.cpp").string(),
                                   (dir / "m.so").string());
    opt.argv.insert(opt.argv.begin() + 1, "-H");  // print each header used
    const RunOutcome ro = run_subprocess(opt);
    EXPECT_TRUE(ro.ok()) << ro.describe() << "\n" << ro.captured;
    // -H marks a header served from a valid PCH with '!'.
    EXPECT_NE(ro.captured.find("! " + pch + "/" + gch), std::string::npos)
        << ro.captured.substr(0, 2000);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CacheCompiler, AvailabilityProbeTracksCompilerChanges) {
  if (!compiler_available()) GTEST_SKIP();
  const char* saved_cxx = std::getenv("PYGB_CXX");
  const std::string saved_cxx_value = saved_cxx ? saved_cxx : "";

  ::setenv("PYGB_CXX", "/bin/false", 1);
  EXPECT_FALSE(compiler_available());  // once_flag would return stale true

  // A command that cannot even answer --version: identity falls back to
  // the command string itself.
  ::setenv("PYGB_CXX", "/nonexistent/pygb-no-such-cxx", 1);
  EXPECT_FALSE(compiler_available());
  EXPECT_EQ(compiler_identity(), "/nonexistent/pygb-no-such-cxx");

  if (saved_cxx != nullptr) {
    ::setenv("PYGB_CXX", saved_cxx_value.c_str(), 1);
  } else {
    ::unsetenv("PYGB_CXX");
  }
  EXPECT_TRUE(compiler_available());
  EXPECT_FALSE(compiler_identity().empty());
}

TEST(CacheLoader, StampScanFindsAStampStraddlingABlockBoundary) {
  const auto dir = fs::temp_directory_path() /
                   ("pygb_scan_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string stamp = module_stamp("mxm|c=fp64|straddle");
  const std::string needle = std::string(kStampMarker) + stamp + '\0';
  const fs::path path = dir / "m.so";
  auto write_at = [&](std::size_t offset, const std::string& payload) {
    std::string bytes(offset, 'x');
    bytes += payload;
    bytes += std::string(100, 'y');
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  // The needle starting 1..needle-1 bytes before the first block ends, and
  // exactly at the boundary.
  for (std::size_t before : {std::size_t{0}, std::size_t{1},
                             needle.size() / 2, needle.size() - 1}) {
    write_at(kStampScanBlock - before, needle);
    EXPECT_TRUE(file_carries_stamp(path.string(), stamp)) << before;
  }
  // Across the boundary, a stamp without its terminating NUL (a longer
  // key's module) or with one byte changed is still refused.
  write_at(kStampScanBlock - needle.size() / 2,
           needle.substr(0, needle.size() - 1) + "z");
  EXPECT_FALSE(file_carries_stamp(path.string(), stamp));
  std::string changed = needle;
  changed[needle.size() / 2] ^= 1;
  write_at(kStampScanBlock - needle.size() / 2, changed);
  EXPECT_FALSE(file_carries_stamp(path.string(), stamp));
  // Truncated inside the stamp, right after the boundary.
  std::string cut(kStampScanBlock - 10, 'x');
  cut += needle.substr(0, 20);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(cut.data(), static_cast<std::streamsize>(cut.size()));
  EXPECT_FALSE(file_carries_stamp(path.string(), stamp));
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CacheEviction, EvictsFullStemFamilyIncludingLitter) {
  // Eviction must take the WHOLE stem family. Evicting only the .so (and
  // the well-known .cpp/.srcmap siblings) stranded .lock / .so.log /
  // .so.bad / orphaned .so.<pid>.tmp files forever: with the cap filled by
  // unevictable litter, every later pass thrashed live modules instead.
  const auto dir = fs::temp_directory_path() /
                   ("pygb_evict_test_" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  auto plant = [&](const std::string& name, std::size_t bytes) {
    write_file(dir / name, std::string(bytes, 'x'));
  };
  const std::vector<std::string> old_family = {
      "aa11.so",     "aa11.cpp",    "aa11.srcmap",       "aa11.lock",
      "aa11.so.log", "aa11.so.bad", "aa11.so.12345.tmp",
  };
  plant("aa11.so", 400);
  for (std::size_t i = 1; i < old_family.size(); ++i) {
    plant(old_family[i], 100);
  }
  plant("bb22.so", 400);
  const auto now = fs::file_time_type::clock::now();
  fs::last_write_time(dir / "aa11.so", now - std::chrono::hours(2));
  fs::last_write_time(dir / "bb22.so", now);

  // Total 1400 bytes; cap 500 forces out the old family (1000 bytes, the
  // .so plus every sidecar), after which the directory fits.
  const std::uint64_t evicted = enforce_cache_cap(dir.string(), 500);
  EXPECT_EQ(evicted, 1000u);
  for (const std::string& name : old_family) {
    EXPECT_FALSE(fs::exists(dir / name)) << name << " stranded";
  }
  EXPECT_TRUE(fs::exists(dir / "bb22.so"));  // newest is never evicted
  fs::remove_all(dir, ec);
}

}  // namespace
