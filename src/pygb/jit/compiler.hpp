// pygb/jit/compiler.hpp — the `g++ ... -o <mod>.so` stage of Fig. 9.
#pragma once

#include <string>
#include <vector>

namespace pygb::jit {

struct CompileResult {
  bool ok = false;
  std::string log;       ///< compiler diagnostics on failure
  double seconds = 0.0;  ///< wall time of the compiler invocation(s)
  bool timed_out = false;  ///< killed at the PYGB_JIT_TIMEOUT_MS deadline
  /// Environmental failure (timeout, OOM, spawn failure, tmpdir full):
  /// the key is not doomed — the registry's circuit breaker treats these
  /// differently from a deterministic compile error.
  bool transient = false;
  int attempts = 0;  ///< child launches (transient failures are retried)
};

/// Compile `source_path` into a shared object at `output_path` against the
/// project's headers. The compiler binary comes from PYGB_CXX (default
/// "g++"; a multi-word value like "ccache g++" is split on whitespace);
/// flags mirror the library's own build (-std=c++20 -O2).
///
/// The invocation runs through the sandboxed subprocess runner (see
/// pygb/jit/subprocess.hpp): argv-based exec (no shell — paths with
/// spaces or quotes are safe), a wall-clock deadline with SIGTERM→SIGKILL
/// process-group escalation, child rlimits, captured stderr, and bounded
/// retry of transient failures. On failure the stderr capture is written
/// to `<output>.log` (with a "killed after Xms" trailer when the deadline
/// fired) and folded into `log`; on success no .log is left behind.
CompileResult compile_module(const std::string& source_path,
                             const std::string& output_path);

/// True when a working C++ compiler is reachable and an include directory
/// is known. The `--version` probe is cached per compiler command, so
/// changing PYGB_CXX mid-process (as tests do) re-probes instead of
/// returning a stale answer; one probe answers compiler_identity() too.
/// The probe itself is deadline-bounded — a HUNG compiler counts as
/// unavailable instead of wedging the first dispatch.
bool compiler_available();

/// The compiler command used (for diagnostics and bench output).
std::string compiler_command();

/// First line of `<compiler> --version` — the compiler identity baked
/// into the cache stamp (see pygb/jit/cache.hpp). Shares
/// compiler_available()'s probe; falls back to the command string when
/// the probe fails.
std::string compiler_identity();

/// The exact flag string passed to the compiler for generated modules —
/// part of the cache stamp, since flag drift changes module ABI.
std::string compile_flags();

/// The argv that compiles a generated module: `cxx` and `flags` split on
/// whitespace, then — when they and `include_dir` are this process's own
/// and the build-time glue.hpp PCH for its cache stamp exists
/// (active_pch_dir()) — `-Winvalid-pch -I<pch dir>`, then
/// `-I<include_dir> <source> -o <output>`.
std::vector<std::string> module_compile_argv(const std::string& cxx,
                                             const std::string& flags,
                                             const std::string& include_dir,
                                             const std::string& source,
                                             const std::string& output);

/// The include directory holding the project sources that generated
/// modules compile against (baked in at build time, overridable via
/// PYGB_INCLUDE_DIR for relocated installs).
std::string source_include_dir();

}  // namespace pygb::jit
