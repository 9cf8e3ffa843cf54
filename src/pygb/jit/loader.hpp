// pygb/jit/loader.hpp — the dlopen/dlsym stage of Fig. 9's module import,
// plus the MODULE MAP: a fixed-size, async-signal-safe registry of every
// JIT module's address range and provenance (dispatch key, DSL func,
// generated-source line), maintained at load time so the crash handler
// (pygb/obs/crash.hpp) can attribute a faulting PC inside a dlopen'd
// mapping back to the DSL expression that generated it.
#pragma once

#include <cstdint>
#include <string>

#include "pygb/jit/module_key.hpp"

namespace pygb::jit {

/// The symbol every generated module exports.
inline constexpr const char* kKernelSymbol = "pygb_kernel";

/// Provenance symbols compiled into every v5+ module (pygb/jit/codegen.cpp).
inline constexpr const char* kModuleKeySymbol = "pygb_module_key";
inline constexpr const char* kModuleFuncSymbol = "pygb_module_func";
inline constexpr const char* kModuleKernelLineSymbol =
    "pygb_module_kernel_line";

/// dlopen the shared object and resolve the kernel entry point. Returns
/// nullptr and fills *error on failure. Handles are kept open for the
/// process lifetime (modules are cached, never unloaded — matching
/// Python's importlib behaviour).
///
/// When `expected_stamp` is non-empty the module must export a
/// `pygb_module_stamp` string equal to it (see pygb/jit/cache.hpp). A
/// missing or mismatched stamp — a module built by a different compiler,
/// different flags, an older cache schema, or a 64-bit key-hash collision
/// — fails the load instead of silently running the wrong kernel.
///
/// A successfully loaded module carrying provenance symbols is entered
/// into modmap below (pre-v5 modules simply aren't attributable).
KernelFn load_kernel(const std::string& so_path, std::string* error,
                     const std::string& expected_stamp = {});

/// Block size of the pre-dlopen stamp scan.
inline constexpr std::size_t kStampScanBlock = 64 * 1024;

/// True when the file's bytes contain kStampMarker + `stamp` + NUL. The
/// file is read in kStampScanBlock blocks through one buffer that keeps
/// the previous block's last (needle - 1) bytes, so a stamp straddling a
/// block boundary is found and memory stays bounded whatever the file
/// size. load_kernel() runs this before dlopen.
bool file_carries_stamp(const std::string& path, const std::string& stamp);

namespace modmap {

inline constexpr std::size_t kMaxModules = 256;
inline constexpr std::size_t kFuncBytes = 48;
inline constexpr std::size_t kKeyBytes = 512;
inline constexpr std::size_t kPathBytes = 512;

/// One loaded JIT module. POD with fixed buffers: the crash handler reads
/// entries from a signal context, so nothing here may allocate or point at
/// freeable memory. Strings longer than their buffer are truncated.
struct Entry {
  std::uintptr_t base = 0;      ///< dlopen load base
  std::uintptr_t end = 0;       ///< base + mapped extent
  std::uint64_t key_hash = 0;   ///< FNV-1a of key (matches flightrec tags)
  unsigned kernel_line = 0;     ///< physical kernel line in the .cpp
  char func[kFuncBytes] = {};   ///< DSL func name
  char key[kKeyBytes] = {};     ///< full dispatch key
  char so_path[kPathBytes] = {};  ///< the mapped .so (srcmap sits beside it)
};

/// Number of registered modules (monotonic; modules are never unloaded).
std::size_t count() noexcept;

/// Entry i (i < count()), or nullptr. ASYNC-SIGNAL-SAFE.
const Entry* at(std::size_t i) noexcept;

/// The module whose [base, end) contains pc, or nullptr for host code.
/// ASYNC-SIGNAL-SAFE: atomic loads and a bounded linear scan only.
const Entry* find(std::uintptr_t pc) noexcept;

}  // namespace modmap

}  // namespace pygb::jit
