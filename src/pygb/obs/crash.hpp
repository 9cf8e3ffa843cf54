// pygb/obs/crash.hpp — crash attribution for JIT kernels
// (docs/OBSERVABILITY.md).
//
// A fatal signal (SIGSEGV / SIGBUS / SIGFPE / SIGABRT) inside a process
// that dispatches dynamically compiled kernels is normally unattributable:
// the faulting PC lands in an anonymous dlopen'd mapping and the core dump
// names `pygb_kernel + 0x2f` at best. This module turns that into a
// postmortem report naming the DSL expression that was executing:
//
//   * an async-signal-safe handler writes a plain-text report into
//     PYGB_CRASH_DIR (O_EXCL, pid-named — never overwrites);
//   * the report carries the raw backtrace, the flight-recorder tail
//     (pygb::flightrec), the active span stack, the governed op name, and
//     every obs counter;
//   * frames whose PC falls inside a registered JIT module (the loader's
//     module map, pygb/jit/loader.hpp) are attributed to the DSL func,
//     module key, and the #line-mapped kernel line of the generated source
//     persisted next to the cached .so.
//
// Concurrency: the first crashing thread wins a CAS and writes the report;
// other threads that crash concurrently park in nanosleep until the winner
// re-raises with SIG_DFL and the process dies with the original signal. A
// nested fault inside the handler bypasses attribution and dies directly.
//
// AS-safety discipline: the handler touches only write()/open()/close(),
// backtrace()/backtrace_symbols_fd() (primed at install time so libgcc is
// already loaded), lock-free atomics, and POD thread-locals. No malloc, no
// stdio, no locks.
#pragma once

#include <cstdint>

namespace pygb::crash {

/// Install the handlers, writing reports into `dir` (created best-effort).
/// Idempotent; the first call wins. Safe to call from static init.
void install(const char* dir);

bool installed() noexcept;

/// Directory reports are written to ("" when not installed).
const char* report_dir() noexcept;

/// Reports successfully written by this process (0 or 1 in practice —
/// the winner re-raises and dies).
std::uint64_t reports_written() noexcept;

namespace detail {
/// Write the full report body to `fd` for signal `sig` with fault address
/// `addr`. Exposed for tests (which exercise it on a pipe without dying);
/// AS-safe.
void write_report(int fd, int sig, const void* addr) noexcept;
}  // namespace detail

}  // namespace pygb::crash
