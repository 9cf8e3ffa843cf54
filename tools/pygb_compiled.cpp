// tools/pygb_compiled.cpp — the persistent compile-service worker.
//
// Spawned and supervised by pygb::jit::CompileService (spawn_supervised:
// own process group, PR_SET_PDEATHSIG, no core dumps). Speaks the
// length-prefixed frame protocol of pygb/jit/compile_service.hpp on the
// socketpair the supervisor installed as fd 0/1; stderr passes through to
// the client for human eyes.
//
// Each compile goes through the same argv builder as the in-process path
// (module_compile_argv), so it uses the same build-time glue.hpp PCH
// (docs/CACHE.md) when one exists for this process's cache stamp.
//
// Faultinj site "compiled" is enacted HERE (PYGB_FAULTS is inherited from
// the client): at startup — crash exits before the handshake, stale_proto
// handshakes a wrong version, corrupt garbles the handshake, hang parks —
// and again per request. The client's detection and restart machinery is
// therefore exercised against a real misbehaving process, not a mock.
//
// Protocol (all frames [u32 LE len][payload], '\x1f'-separated fields):
//   handshake (worker→client): PYGB-COMPILED, version, pid, pch(0|1) —
//             whether the build-time PCH directory goes on compile argvs
//   request:  REQ, id, timeout_ms, mem_limit_mb, retries, cxx, flags,
//             include_dir, source, output
//   response: RSP, id, status, exit_code, transient(0|1), attempts,
//             wall_ns, stderr-tail (last field, verbatim to frame end)
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "pygb/faultinj.hpp"
#include "pygb/jit/cache.hpp"
#include "pygb/jit/compile_service.hpp"
#include "pygb/jit/subprocess.hpp"

namespace {

using namespace pygb::jit;

/// Enact a faultinj decision at a protocol boundary. Returns true when the
/// caller should proceed normally (possibly delayed).
bool enact(pygb::faultinj::Action a, bool handshake_pending) {
  using pygb::faultinj::Action;
  switch (a) {
    case Action::kNone:
      return true;
    case Action::kSlow:
      ::usleep(2000 * 1000);
      return true;
    case Action::kCrash:
      ::_exit(86);  // abrupt: no reply — the client's death detection
                    // and the pdeathsig on any g++ child are what keep
                    // this survivable
    case Action::kHang:
      for (;;) ::pause();  // parked until the supervisor kills us
    case Action::kCorrupt: {
      // A frame header promising more bytes than ever arrive: the client
      // must classify this as corruption, kill, and restart.
      const unsigned char garbage[] = {0xff, 0xff, 0xff, 0x7e, 'j', 'u',
                                       'n', 'k'};
      ssize_t ignored =
          ::write(1, garbage, sizeof garbage);
      (void)ignored;
      for (;;) ::pause();
    }
    case Action::kStaleProto: {
      if (handshake_pending) return true;  // handled by the handshake path
      compiled::write_frame(
          1, std::string(compiled::kMagic) + compiled::kSep + "99");
      for (;;) ::pause();
    }
    case Action::kFail:
      return false;  // caller reports an injected compiler failure
  }
  return true;
}

}  // namespace

int main() {
  // Frames only on fd 1 — anything else printf'd there is protocol
  // corruption, so stdout stays untouched and diagnostics go to stderr.

  // Startup fault visit: models "worker broken at spawn".
  const auto boot = pygb::faultinj::check(pygb::faultinj::site::kCompiled);
  bool stale_proto = boot.action == pygb::faultinj::Action::kStaleProto;
  if (!enact(boot.action, /*handshake_pending=*/true)) ::_exit(1);

  std::string hello = compiled::kMagic;
  hello += compiled::kSep;
  hello += std::to_string(stale_proto ? 99 : compiled::kProtocolVersion);
  hello += compiled::kSep;
  hello += std::to_string(::getpid());
  hello += compiled::kSep;
  hello += active_pch_dir().empty() ? "0" : "1";
  if (!compiled::write_frame(1, hello)) return 1;

  std::string payload;
  for (;;) {
    const auto rr = compiled::read_frame(0, &payload, /*deadline_ms=*/-1);
    if (rr == compiled::ReadResult::kEof) break;  // client gone: clean exit
    if (rr != compiled::ReadResult::kOk) return 2;
    std::string f[10];
    compiled::split_fields(payload, compiled::kSep, 10, f);
    if (f[0] != "REQ") return 2;
    const std::string& id = f[1];
    const int timeout_ms = std::atoi(f[2].c_str());
    const std::uint64_t mem_mb = std::strtoull(f[3].c_str(), nullptr, 10);
    const int retries = std::atoi(f[4].c_str());
    const std::string& cxx = f[5];
    const std::string& flags = f[6];
    const std::string& include = f[7];
    const std::string& source = f[8];
    const std::string& output = f[9];

    const auto fault =
        pygb::faultinj::check(pygb::faultinj::site::kCompiled);
    std::string rsp = "RSP";
    rsp += compiled::kSep;
    rsp += id;
    rsp += compiled::kSep;
    if (!enact(fault.action, /*handshake_pending=*/false)) {
      rsp += "exit-nonzero";
      rsp += compiled::kSep;
      rsp += "1";  // exit_code
      rsp += compiled::kSep;
      rsp += "0";  // transient
      rsp += compiled::kSep;
      rsp += "1";  // attempts
      rsp += compiled::kSep;
      rsp += "0";  // wall_ns
      rsp += compiled::kSep;
      rsp += "faultinj: injected compile-service failure (compiled:fail)";
      if (!compiled::write_frame(1, rsp)) break;
      continue;
    }

    RunOptions opt;
    opt.argv = module_compile_argv(cxx, flags, include, source, output);
    opt.timeout_ms = timeout_ms;
    opt.mem_limit_mb = mem_mb;
    opt.max_attempts = 1 + (retries < 0 ? 0 : retries);
    opt.fault_site = pygb::faultinj::site::kCompile;
    // If the supervisor SIGKILLs THIS process mid-compile, the g++ child
    // dies with it instead of racing an unsupervised .so.tmp into place.
    opt.kill_on_parent_death = true;
    const RunOutcome ro = run_subprocess(opt);

    rsp += to_string(ro.status);
    rsp += compiled::kSep;
    rsp += std::to_string(ro.exit_code);
    rsp += compiled::kSep;
    rsp += ro.transient ? "1" : "0";
    rsp += compiled::kSep;
    rsp += std::to_string(ro.attempts);
    rsp += compiled::kSep;
    rsp += std::to_string(
        static_cast<std::uint64_t>(ro.seconds * 1e9));
    rsp += compiled::kSep;
    rsp += ro.captured;  // last field: verbatim to frame end
    if (!compiled::write_frame(1, rsp)) break;
  }
  return 0;
}
