#include "pygb/jit/cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "pygb/config.hpp"
#include "pygb/jit/compiler.hpp"
#include "pygb/jit/registry.hpp"
#include "pygb/jit/subprocess.hpp"
#include "pygb/obs/obs.hpp"

namespace pygb::jit {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kTmpSuffix = ".tmp";
constexpr std::string_view kLogSuffix = ".log";
constexpr std::string_view kBadSuffix = ".bad";

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// FNV-1a over `n` more bytes.
std::uint64_t fnv1a_update(std::uint64_t h, const char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The `|headers=` digest of cache_stamp() for `include_dir`.
std::uint64_t header_digest(const std::string& include_dir) {
  std::vector<std::string> headers;  // relative to include_dir
  std::error_code ec;
  for (const char* sub : kStampedHeaderDirs) {
    const fs::path root = fs::path(include_dir) / sub;
    for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (it->path().extension() == ".hpp" && it->is_regular_file(ec)) {
        headers.push_back(it->path().lexically_relative(include_dir).string());
      }
    }
    ec.clear();
  }
  std::sort(headers.begin(), headers.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  char buf[16384];
  for (const std::string& rel : headers) {
    h = fnv1a_update(h, rel.c_str(), rel.size() + 1);  // NUL-separated
    const int fd =
        ::open((include_dir + "/" + rel).c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof buf)) > 0 || (n < 0 && errno == EINTR)) {
      if (n > 0) h = fnv1a_update(h, buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    h = fnv1a_update(h, "\0", 1);  // end of file: contents cannot shift
  }
  return h;
}

/// header_digest() per include directory: hashed once per process.
std::mutex g_digest_mu;
std::map<std::string, std::uint64_t> g_digests;

std::uint64_t memo_header_digest(const std::string& include_dir) {
  std::lock_guard lock(g_digest_mu);
  if (auto it = g_digests.find(include_dir); it != g_digests.end()) {
    return it->second;
  }
  return g_digests.emplace(include_dir, header_digest(include_dir))
      .first->second;
}

#ifndef PYGB_JIT_PCH_ROOT
#define PYGB_JIT_PCH_ROOT ""
#endif

}  // namespace

void forget_header_digests() {
  std::lock_guard lock(g_digest_mu);
  g_digests.clear();
}

std::string cache_stamp() {
  const std::string include_dir = source_include_dir();
  return "pygb-cache-v" + std::to_string(kCacheSchemaVersion) + "|" +
         compiler_identity() + "|" + compile_flags() + "|include=" +
         include_dir + "|headers=" + hex64(memo_header_digest(include_dir));
}

std::string jit_pch_root() { return PYGB_JIT_PCH_ROOT; }

std::string jit_pch_dir() {
  const std::string root = jit_pch_root();
  if (root.empty()) return "";
  return root + "/" + hex64(key_hash(cache_stamp()));
}

std::string active_pch_dir() {
  std::string dir = jit_pch_dir();
  std::error_code ec;
  if (dir.empty()) return "";
  for (const char* file : kPchFiles) {
    if (!fs::is_regular_file(dir + "/" + file, ec)) return "";
  }
  return dir;
}

std::string module_stamp(const std::string& key) {
  return cache_stamp() + "|key=" + key;
}

std::string module_stem(const std::string& key) {
  return "pygb_" + hex64(key_hash(key)) + "_" + hex64(key_hash(cache_stamp()));
}

std::uint64_t cache_max_bytes() {
  return config::get("PYGB_CACHE_MAX_BYTES");
}

bool quarantine_module(const std::string& so_path) {
  std::error_code ec;
  const fs::path bad(so_path + std::string(kBadSuffix));
  fs::rename(so_path, bad, ec);
  if (!ec) return true;
  fs::remove(so_path, ec);
  return !fs::exists(so_path, ec);
}

std::size_t clean_cache_litter(const std::string& dir) {
  std::error_code ec;
  std::size_t removed = 0;
  const auto now = fs::file_time_type::clock::now();
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (!ends_with(name, kTmpSuffix) && !ends_with(name, kLogSuffix) &&
        !ends_with(name, kBadSuffix)) {
      continue;
    }
    const auto mtime = entry.last_write_time(ec);
    if (ec || now - mtime < kCacheHygieneHorizon) continue;
    if (fs::remove(entry.path(), ec) && !ec) ++removed;
  }
  return removed;
}

std::uint64_t enforce_cache_cap(const std::string& dir,
                                std::uint64_t max_bytes) {
  if (max_bytes == 0) return 0;
  std::error_code ec;

  struct Module {
    fs::path so;
    std::string stem;  ///< filename minus ".so": "pygb_<keyh>_<stamph>"
    fs::file_time_type mtime;
    std::uint64_t bytes = 0;    ///< every file carrying this stem
    std::vector<fs::path> files;  ///< the full stem family, .so included
  };
  std::vector<Module> modules;
  std::uint64_t total = 0;
  // Pass 1: find the published modules.
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::uint64_t sz = entry.file_size(ec);
    if (ec) continue;
    total += sz;
    if (entry.path().extension() == ".so") {
      Module m;
      m.so = entry.path();
      m.stem = entry.path().filename().string();
      m.stem.resize(m.stem.size() - 3);  // drop ".so"
      m.mtime = entry.last_write_time(ec);
      modules.push_back(std::move(m));
    }
  }
  if (total <= max_bytes || modules.size() <= 1) return 0;

  // Pass 2: attribute EVERY file to its stem family — not just the
  // .cpp/.srcmap siblings but also .lock, .so.log, .so.bad, and orphaned
  // .so.<pid>.tmp outputs. Evicting only the "known" extensions used to
  // strand those sidecars forever: the cap would then fill with
  // unevictable litter and thrash the actual modules. Stems are unique
  // hex pairs, so a "<stem>." prefix match cannot cross families.
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::uint64_t sz = entry.file_size(ec);
    if (ec) continue;
    const std::string name = entry.path().filename().string();
    for (Module& m : modules) {
      if (name.size() > m.stem.size() + 1 &&
          name.compare(0, m.stem.size(), m.stem) == 0 &&
          name[m.stem.size()] == '.') {
        m.bytes += sz;
        m.files.push_back(entry.path());
        break;
      }
    }
  }

  std::sort(modules.begin(), modules.end(),
            [](const Module& a, const Module& b) { return a.mtime < b.mtime; });
  std::uint64_t evicted = 0;
  // Oldest first; the newest module (back of the sorted list) is never
  // evicted — it is usually the one the caller just published. The whole
  // family goes together (a stale .lock is safe to drop: flock lives on
  // the inode, so a holder keeps its lock and the worst case is one
  // uncoalesced recompile of a module this pass already condemned).
  for (std::size_t i = 0; i + 1 < modules.size() && total - evicted > max_bytes;
       ++i) {
    for (const fs::path& p : modules[i].files) {
      const std::uint64_t sz = fs::file_size(p, ec);
      const std::uint64_t counted = ec ? 0 : sz;
      std::error_code rec;
      if (fs::remove(p, rec) && !rec) evicted += counted;
    }
  }
  return evicted;
}

CacheInfo cache_info(const std::string& dir) {
  CacheInfo info;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::uint64_t sz = entry.file_size(ec);
    if (!ec) info.total_bytes += sz;
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() == ".so") {
      ++info.modules;
    } else if (ends_with(name, kBadSuffix)) {
      ++info.quarantined;
    } else if (ends_with(name, kLogSuffix)) {
      ++info.logs;
    }
  }
  return info;
}

int lock_timeout_ms() {
  return static_cast<int>(
      config::get("PYGB_LOCK_TIMEOUT_MS", jit_timeout_ms() + 10000));
}

FileLock::FileLock(const std::string& path)
    : FileLock(path, lock_timeout_ms()) {}

FileLock::FileLock(const std::string& path, int timeout_ms) {
  fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd_ < 0) return;
  // Non-blocking attempts with backoff up to the deadline: a LIVE holder
  // wedged mid-compile (the crashed-holder case releases automatically
  // when its fd dies) must not wedge every peer process with it.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int backoff_ms = 5;
  while (true) {
    if (::flock(fd_, LOCK_EX | LOCK_NB) == 0) {
      held_ = true;
      return;
    }
    if (errno != EWOULDBLOCK && errno != EINTR) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    if (timeout_ms != 0 && std::chrono::steady_clock::now() >= deadline) {
      // Deadline: keep the fd closed, report timed_out; the caller
      // proceeds with a private (uncoalesced) compile.
      timed_out_ = true;
      ::close(fd_);
      fd_ = -1;
      obs::counter_add(obs::Counter::kLockTimeouts);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, 200);
  }
}

FileLock::~FileLock() {
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
}

}  // namespace pygb::jit
