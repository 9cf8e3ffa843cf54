#include "pygb/jit/compiler.hpp"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "pygb/faultinj.hpp"
#include "pygb/governor.hpp"
#include "pygb/jit/cache.hpp"
#include "pygb/jit/subprocess.hpp"
#include "pygb/obs/obs.hpp"

#ifndef PYGB_SOURCE_INCLUDE_DIR
#define PYGB_SOURCE_INCLUDE_DIR ""
#endif

namespace pygb::jit {

namespace {

std::string env_or(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::string(v) : fallback;
}

/// Render an argv for diagnostics. This string is NEVER executed — the
/// child is launched with execvp on the vector itself — so the quoting
/// here only has to be readable, not shell-correct.
std::string render_argv(const std::vector<std::string>& argv) {
  std::string out;
  for (const auto& arg : argv) {
    if (!out.empty()) out += ' ';
    if (arg.find(' ') != std::string::npos ||
        arg.find('\'') != std::string::npos) {
      out += '\'';
      out += arg;
      out += '\'';
    } else {
      out += arg;
    }
  }
  return out;
}

/// One `<compiler> --version` per compiler command answers both
/// compiler_available() and compiler_identity(); keyed by the command, so
/// a PYGB_CXX change mid-process re-probes.
struct Probe {
  bool ok = false;
  std::string identity;  ///< first line of --version, or the command
};
std::mutex g_probe_mu;
std::map<std::string, Probe> g_probes;

/// `<compiler> --version`, argv-based and deadline-bounded: a PYGB_CXX
/// pointing at a path with spaces probes correctly, and a compiler that
/// HANGS on --version is classified unavailable instead of wedging the
/// first dispatch that probes it. The lock is held across the probe so
/// that racing first dispatches share one child.
const Probe& probe(const std::string& command) {
  std::lock_guard lock(g_probe_mu);
  if (auto it = g_probes.find(command); it != g_probes.end()) {
    return it->second;
  }
  RunOptions opt;
  opt.argv = split_command(command);
  opt.argv.push_back("--version");
  opt.timeout_ms = 5000;
  opt.capture_stdout = true;
  const RunOutcome ro = run_subprocess(opt);
  Probe p;
  p.ok = ro.ok();
  if (p.ok) p.identity = ro.out.substr(0, ro.out.find('\n'));
  while (!p.identity.empty() &&
         (p.identity.back() == '\n' || p.identity.back() == '\r')) {
    p.identity.pop_back();
  }
  if (p.identity.empty()) p.identity = command;  // unprobeable
  return g_probes.emplace(command, std::move(p)).first->second;
}

}  // namespace

std::string compiler_command() { return env_or("PYGB_CXX", "g++"); }

std::string source_include_dir() {
  return env_or("PYGB_INCLUDE_DIR", PYGB_SOURCE_INCLUDE_DIR);
}

std::string compile_flags() {
  return "-std=c++20 -O2 -DNDEBUG -shared -fPIC";
}

namespace {

/// Compile deadline for this invocation: the configured JIT timeout,
/// clamped to whatever remains of the requesting context's whole-request
/// deadline (a governed request with 3s left must not start a 30s
/// compile — the fallback ladder should engage while the caller can still
/// use the answer).
int effective_compile_timeout_ms() {
  int timeout = jit_timeout_ms();
  const std::uint64_t remaining =
      governor::current_context().request_deadline_remaining_ms();
  if (remaining != 0) {
    const int rem = remaining > static_cast<std::uint64_t>(INT_MAX)
                        ? INT_MAX
                        : static_cast<int>(remaining);
    timeout = timeout <= 0 ? rem : std::min(timeout, rem);
  }
  return timeout;
}

}  // namespace

CompileResult compile_module(const std::string& source_path,
                             const std::string& output_path) {
  CompileResult result;
  const std::string log_path = output_path + ".log";
  const int timeout_ms = effective_compile_timeout_ms();

  RunOptions opt;
  opt.argv = module_compile_argv(compiler_command(), compile_flags(),
                                 source_include_dir(), source_path,
                                 output_path);
  opt.timeout_ms = timeout_ms;
  opt.mem_limit_mb = jit_mem_limit_mb();
  opt.max_attempts = 1 + jit_max_retries();
  opt.fault_site = faultinj::site::kCompile;

  obs::Span span("jit.compile");
  span.attr("source", source_path).attr("output", output_path);

  const RunOutcome ro = run_subprocess(opt);
  result.ok = ro.ok();
  result.seconds = ro.seconds;
  result.timed_out = ro.status == RunStatus::kTimeout;
  result.transient = ro.transient;
  result.attempts = ro.attempts;
  span.attr("ok", static_cast<std::int64_t>(result.ok ? 1 : 0));
  span.attr("status", to_string(ro.status));
  span.attr("attempts", static_cast<std::int64_t>(ro.attempts));
  obs::record_value("compile_ns",
                    static_cast<std::uint64_t>(ro.seconds * 1e9));

  std::error_code ec;
  if (result.ok) {
    std::filesystem::remove(log_path, ec);
    return result;
  }

  // Failure: persist the diagnostics next to where the module would have
  // been (pygb_cli --cache-info counts these; the hygiene sweeper reaps
  // them after the horizon) and fold them into the in-memory result.
  std::ostringstream log;
  log << "command: " << render_argv(opt.argv) << "\ncompiler "
      << ro.describe();
  if (result.timed_out) {
    log << "\nkilled after "
        << static_cast<long long>(ro.seconds * 1000.0) << "ms (deadline "
        << opt.timeout_ms << "ms, PYGB_JIT_TIMEOUT_MS)";
  }
  if (ro.attempts > 1) log << "\nattempts: " << ro.attempts;
  log << "\n" << ro.captured;
  result.log = log.str();
  {
    std::ofstream out(log_path);
    out << result.log;
  }
  return result;
}

bool compiler_available() {
  return !source_include_dir().empty() && probe(compiler_command()).ok;
}

std::string compiler_identity() { return probe(compiler_command()).identity; }

std::vector<std::string> module_compile_argv(const std::string& cxx,
                                             const std::string& flags,
                                             const std::string& include_dir,
                                             const std::string& source,
                                             const std::string& output) {
  std::vector<std::string> argv = split_command(cxx);
  for (auto& flag : split_command(flags)) argv.push_back(std::move(flag));
  // The PCH directory is named by this process's stamp, so it only
  // describes a compile with exactly this process's compiler, flags and
  // headers; -Winvalid-pch makes a refused PCH show up in the log.
  if (cxx == compiler_command() && flags == compile_flags() &&
      include_dir == source_include_dir()) {
    if (std::string pch = active_pch_dir(); !pch.empty()) {
      argv.push_back("-Winvalid-pch");
      argv.push_back("-I" + pch);
    }
  }
  argv.push_back("-I" + include_dir);
  argv.push_back(source);
  argv.push_back("-o");
  argv.push_back(output);
  return argv;
}

}  // namespace pygb::jit
