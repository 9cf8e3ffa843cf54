#include "pygb/jit/loader.hpp"

#include <dlfcn.h>
#include <fcntl.h>
#include <link.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <string_view>
#include <vector>

#include "gbtl/core.hpp"
#include "gbtl/detail/pool.hpp"
#include "pygb/faultinj.hpp"
#include "pygb/jit/cache.hpp"
#include "pygb/obs/flightrec.hpp"
#include "pygb/obs/obs.hpp"

namespace pygb::jit {

namespace {

/// The host's PoolApi plus the driver table, built on the first module
/// load (nothing touches the driver table before a module needs it).
const gbtl::detail::PoolApi* module_pool_api() {
  static const gbtl::detail::PoolApi api = [] {
    gbtl::detail::PoolApi a = *gbtl::detail::host_pool_api();
    a.drivers = &gbtl::host_driver_table();
    return a;
  }();
  return &api;
}

}  // namespace

namespace modmap {

namespace {

Entry g_entries[kMaxModules];
std::atomic<std::size_t> g_count{0};
std::mutex g_register_mu;  ///< serializes writers; readers are lock-free

void copy_trunc(char* dst, std::size_t cap, const char* src) {
  std::strncpy(dst, src != nullptr ? src : "", cap - 1);
  dst[cap - 1] = '\0';
}

/// Mapped extent of the shared object loaded at `base`: the max
/// p_vaddr + p_memsz over its PT_LOAD segments (dlpi_addr == load base
/// for ET_DYN objects).
struct ExtentQuery {
  std::uintptr_t base;
  std::uintptr_t extent;
};

int extent_cb(struct dl_phdr_info* info, std::size_t, void* data) {
  auto* q = static_cast<ExtentQuery*>(data);
  if (static_cast<std::uintptr_t>(info->dlpi_addr) != q->base) return 0;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const auto& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD) continue;
    const std::uintptr_t top = ph.p_vaddr + ph.p_memsz;
    if (top > q->extent) q->extent = top;
  }
  return 1;
}

}  // namespace

std::size_t count() noexcept {
  return g_count.load(std::memory_order_acquire);
}

const Entry* at(std::size_t i) noexcept {
  if (i >= count()) return nullptr;
  return &g_entries[i];
}

const Entry* find(std::uintptr_t pc) noexcept {
  const std::size_t n = count();
  for (std::size_t i = 0; i < n; ++i) {
    const Entry& e = g_entries[i];
    if (pc >= e.base && pc < e.end) return &e;
  }
  return nullptr;
}

}  // namespace modmap

namespace {

/// Enter a freshly dlopen'd module into the map. Best effort: a module
/// without provenance symbols (pre-v5 cache) simply isn't attributable.
void register_module(void* handle, void* kernel_sym,
                     const std::string& so_path) {
  const char* key =
      static_cast<const char*>(dlsym(handle, kModuleKeySymbol));
  const char* func =
      static_cast<const char*>(dlsym(handle, kModuleFuncSymbol));
  if (key == nullptr || func == nullptr) return;
  const unsigned* line =
      static_cast<const unsigned*>(dlsym(handle, kModuleKernelLineSymbol));

  Dl_info dli;
  if (dladdr(kernel_sym, &dli) == 0 || dli.dli_fbase == nullptr) return;
  modmap::ExtentQuery q{reinterpret_cast<std::uintptr_t>(dli.dli_fbase), 0};
  dl_iterate_phdr(modmap::extent_cb, &q);
  if (q.extent == 0) return;

  const std::uint64_t khash = flightrec::fnv1a(key);
  {
    std::lock_guard lock(modmap::g_register_mu);
    const std::size_t idx =
        modmap::g_count.load(std::memory_order_relaxed);
    if (idx >= modmap::kMaxModules) return;
    modmap::Entry& e = modmap::g_entries[idx];
    e.base = q.base;
    e.end = q.base + q.extent;
    e.key_hash = khash;
    e.kernel_line = line != nullptr ? *line : 0;
    modmap::copy_trunc(e.func, modmap::kFuncBytes, func);
    modmap::copy_trunc(e.key, modmap::kKeyBytes, key);
    modmap::copy_trunc(e.so_path, modmap::kPathBytes, so_path.c_str());
    // Publish AFTER the entry is complete: a signal-context reader that
    // sees the new count sees a fully written entry.
    modmap::g_count.store(idx + 1, std::memory_order_release);
  }
  flightrec::record(flightrec::EventKind::kModuleLoad, func, q.extent,
                    khash);
}

/// Drop the resident pages of a loaded module's read-only, non-executable
/// segments: its ELF and dynamic-symbol headers, .rodata and .eh_frame.
/// They are clean file pages that nothing reads after loading and
/// registration except an exception unwinding through the module, which
/// faults them back in from the file. A module then keeps only its code
/// and its relocated data resident; a process holds one mapping per key
/// it ever compiled, for its whole life.
int release_cb(struct dl_phdr_info* info, std::size_t, void* data) {
  const auto base = *static_cast<const std::uintptr_t*>(data);
  if (static_cast<std::uintptr_t>(info->dlpi_addr) != base) return 0;
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  auto lo = [&](const ElfW(Phdr)& ph) {
    return (base + ph.p_vaddr) & ~(page - 1);
  };
  auto hi = [&](const ElfW(Phdr)& ph) {
    return (base + ph.p_vaddr + ph.p_memsz + page - 1) & ~(page - 1);
  };
  // Collect first: the program headers live in the first page released.
  std::pair<std::uintptr_t, std::uintptr_t> ranges[8];
  int n = 0;
  for (int i = 0; i < info->dlpi_phnum && n < 8; ++i) {
    const auto& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || ph.p_flags != PF_R) continue;
    std::uintptr_t start = lo(ph);
    std::uintptr_t end = hi(ph);
    // Never a page that code or relocated data also maps.
    for (int k = 0; k < info->dlpi_phnum; ++k) {
      const auto& other = info->dlpi_phdr[k];
      if (other.p_type != PT_LOAD || other.p_flags == PF_R) continue;
      if (lo(other) < end && hi(other) > start) {
        if (lo(other) <= start) {
          start = std::max(start, hi(other));
        } else {
          end = std::min(end, lo(other));
        }
      }
    }
    if (start < end) ranges[n++] = {start, end};
  }
  for (int i = 0; i < n; ++i) {
    ::madvise(reinterpret_cast<void*>(ranges[i].first),
              ranges[i].second - ranges[i].first, MADV_DONTNEED);
  }
  return 1;
}

void release_read_only_pages(void* kernel_sym) {
  Dl_info dli;
  if (dladdr(kernel_sym, &dli) == 0 || dli.dli_fbase == nullptr) return;
  auto base = reinterpret_cast<std::uintptr_t>(dli.dli_fbase);
  dl_iterate_phdr(release_cb, &base);
}

}  // namespace

/// Verification runs BEFORE dlopen on purpose: an unverified module must
/// never execute its initializers, and glibc resolves dlopen by path name
/// against already-loaded objects, so a bad file has to be rejected
/// without ever being mapped under its path. The trailing NUL makes a
/// shorter key's stamp unable to match inside a longer key's module.
bool file_carries_stamp(const std::string& path, const std::string& stamp) {
  std::string needle = std::string(kStampMarker) + stamp;
  needle.push_back('\0');
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  // [carry | block]: carry holds the tail of everything read so far that
  // could still begin a match.
  const std::size_t keep = needle.size() - 1;
  std::vector<char> buf(keep + kStampScanBlock);
  std::size_t have = 0;  // valid bytes at the front of buf
  bool found = false;
  while (!found) {
    const ssize_t n = ::read(fd, buf.data() + have, kStampScanBlock);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    have += static_cast<std::size_t>(n);
    const std::string_view window(buf.data(), have);
    found = window.find(needle) != std::string_view::npos;
    if (have > keep) {
      std::memmove(buf.data(), buf.data() + have - keep, keep);
      have = keep;
    }
  }
  ::close(fd);
  return found;
}

KernelFn load_kernel(const std::string& so_path, std::string* error,
                     const std::string& expected_stamp) {
  obs::Span span("jit.load");
  span.attr("module", so_path);
  if (faultinj::check(faultinj::site::kCacheVerify)) {
    obs::counter_add(obs::Counter::kFaultsInjected);
    if (error != nullptr) *error = "fault injected at cache_verify";
    return nullptr;
  }
  if (!expected_stamp.empty() &&
      !file_carries_stamp(so_path, expected_stamp)) {
    if (error != nullptr) {
      *error = "module lacks the expected verification stamp (built by a "
               "different compiler/flags/schema, a colliding key, or "
               "corrupt); want '" +
               expected_stamp + "'";
    }
    return nullptr;
  }
  if (faultinj::check(faultinj::site::kDlopen)) {
    obs::counter_add(obs::Counter::kFaultsInjected);
    if (error != nullptr) *error = "fault injected at dlopen";
    return nullptr;
  }
  void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    if (error != nullptr) {
      const char* msg = dlerror();
      *error = msg != nullptr ? msg : "dlopen failed";
    }
    return nullptr;
  }
  void* sym = dlsym(handle, kKernelSymbol);
  if (sym == nullptr) {
    if (error != nullptr) {
      const char* msg = dlerror();
      *error = msg != nullptr ? msg : "dlsym failed";
    }
    dlclose(handle);
    return nullptr;
  }
  // Hand the module the host's worker pool, governor and flight-recorder
  // hooks, and (PoolApi v5) the dtype-only drivers its thin entry calls.
  if (void* inject = dlsym(handle, gbtl::detail::kPoolInjectSymbol)) {
    using InjectFn = void (*)(const gbtl::detail::PoolApi*);
    reinterpret_cast<InjectFn>(inject)(module_pool_api());
  }
  register_module(handle, sym, so_path);
  release_read_only_pages(sym);
  return reinterpret_cast<KernelFn>(sym);
}

}  // namespace pygb::jit
