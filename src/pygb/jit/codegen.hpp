// pygb/jit/codegen.hpp — the source-generation stage of Fig. 9: turn an
// OpRequest into a translation unit that instantiates exactly one entry
// template with concrete types and exports it as `extern "C" pygb_kernel`.
#pragma once

#include <string>

#include "pygb/jit/module_key.hpp"

#include <cstdint>

namespace pygb::jit {

/// Where the generated kernel statement lives — the codegen half of the
/// crash-attribution pipeline (docs/OBSERVABILITY.md). The registry
/// persists this next to the cached .so as a `.srcmap` JSON sidecar, and
/// the same facts are compiled INTO the module as exported symbols
/// (pygb_module_key / pygb_module_func / pygb_module_kernel_line) so a
/// disk-cached module carries its own provenance.
struct SourceInfo {
  std::string func;        ///< DSL func name ("mxm", "fused_chain", ...)
  std::string key;         ///< full dispatch key
  std::uint64_t key_hash = 0;  ///< FNV-1a of the key
  unsigned kernel_line = 0;    ///< physical line of the kernel statement
  std::string dsl_file;    ///< #line virtual file "pygb:dsl:<func>:<hash>"
};

/// The header a module for `req` includes: pygb/jit/glue.hpp for fused
/// chains and whole-algorithm (algo_*) keys, the light pygb/jit/thin.hpp
/// (cores over host drivers) for every other key. Each has its own
/// build-time PCH.
inline constexpr const char* kThinHeader = "pygb/jit/thin.hpp";
inline constexpr const char* kGlueHeader = "pygb/jit/glue.hpp";
const char* module_header(const OpRequest& req);

/// Generate the complete C++ source for the request's kernel module.
/// Throws std::invalid_argument for requests no backend could satisfy
/// (unknown func names, missing operators).
///
/// When `stamp` is non-empty the module additionally exports it as the
/// `pygb_module_stamp` string, which load_kernel() verifies against the
/// requester's expectation (see pygb/jit/cache.hpp) — the guard against
/// hash collisions and environment drift in the shared disk cache.
///
/// The kernel statement is wrapped in a `#line` directive mapping it to a
/// virtual DSL file (D2X-style: debuggers and sanitizer reports then name
/// the originating DSL expression instead of an anonymous temp file), and
/// `info`, when non-null, receives the mapping facts for the sidecar.
std::string generate_source(const OpRequest& req,
                            const std::string& stamp = {},
                            SourceInfo* info = nullptr);

}  // namespace pygb::jit
