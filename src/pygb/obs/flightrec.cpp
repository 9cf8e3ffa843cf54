// pygb/obs/flightrec.cpp — seqlock rings, drain, and the async-signal-safe
// dump (see flightrec.hpp for the design constraints).
#include "pygb/obs/flightrec.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>

namespace pygb::flightrec {

namespace {

// Slot word layout (all std::atomic<std::uint64_t>):
//   w0  seq (0 = empty / being rewritten)
//   w1  t_ns
//   w2  v0
//   w3  v1
//   w4  kind<<48 | tid<<32 | a32
//   w5..w7  detail bytes (NUL-padded)
constexpr std::size_t kEventWords = 8;
constexpr std::size_t kDetailWords = 3;
static_assert(kDetailWords * 8 == kDetailBytes);

struct Slot {
  std::atomic<std::uint64_t> w[kEventWords];
};

struct Ring {
  Slot slots[kRingEvents];
  std::atomic<std::uint64_t> cursor{0};  ///< events written by the owner
  std::uint16_t tid = 0;
};

std::atomic<std::uint64_t> g_seq{0};
std::atomic<std::uint64_t> g_dropped{0};

/// Fixed registry of rings: slots are claimed with a fetch_add and
/// published by storing the pointer (release). Rings are leaked so a
/// ring survives its thread — and so the crash handler can walk them.
std::atomic<Ring*> g_rings[kMaxRings];
std::atomic<std::size_t> g_ring_claims{0};

Ring* register_ring() noexcept {
  const std::size_t idx =
      g_ring_claims.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kMaxRings) return nullptr;
  auto* ring = new (std::nothrow) Ring();
  if (ring == nullptr) return nullptr;
  ring->tid = static_cast<std::uint16_t>(idx + 1);
  g_rings[idx].store(ring, std::memory_order_release);
  return ring;
}

Ring* local_ring() noexcept {
  thread_local Ring* ring = register_ring();
  return ring;
}

std::uint64_t pack_meta(EventKind kind, std::uint16_t tid,
                        std::uint32_t a32) noexcept {
  return (static_cast<std::uint64_t>(kind) << 48) |
         (static_cast<std::uint64_t>(tid) << 32) | a32;
}

/// Decode one slot with the seqlock protocol. False on empty/torn slots.
bool read_slot(const Slot& s, Event* out) noexcept {
  const std::uint64_t seq1 = s.w[0].load(std::memory_order_acquire);
  if (seq1 == 0) return false;
  std::uint64_t w[kEventWords];
  for (std::size_t i = 1; i < kEventWords; ++i) {
    w[i] = s.w[i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (s.w[0].load(std::memory_order_relaxed) != seq1) return false;
  out->seq = seq1;
  out->t_ns = w[1];
  out->v0 = w[2];
  out->v1 = w[3];
  out->kind = static_cast<EventKind>((w[4] >> 48) & 0xffff);
  out->tid = static_cast<std::uint16_t>((w[4] >> 32) & 0xffff);
  out->a32 = static_cast<std::uint32_t>(w[4] & 0xffffffffu);
  std::memcpy(out->detail, &w[5], kDetailBytes);
  out->detail[kDetailBytes - 1] = '\0';
  return true;
}

// -- async-signal-safe text helpers -----------------------------------------

void fd_write(int fd, const char* s, std::size_t n) noexcept {
  while (n > 0) {
    const ssize_t w = ::write(fd, s, n);
    if (w <= 0) return;
    s += w;
    n -= static_cast<std::size_t>(w);
  }
}

void fd_str(int fd, const char* s) noexcept {
  fd_write(fd, s, std::strlen(s));
}

void fd_u64(int fd, std::uint64_t v) noexcept {
  char buf[24];
  char* p = buf + sizeof buf;
  *--p = '\0';
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  fd_str(fd, p);
}

void fd_hex(int fd, std::uint64_t v) noexcept {
  char buf[20];
  char* p = buf + sizeof buf;
  *--p = '\0';
  do {
    *--p = "0123456789abcdef"[v & 0xf];
    v >>= 4;
  } while (v != 0);
  fd_str(fd, "0x");
  fd_str(fd, p);
}

}  // namespace

std::uint64_t now_ns() noexcept {
  static const auto anchor = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - anchor)
          .count());
}

std::uint64_t fnv1a(const char* s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  if (s != nullptr) {
    for (; *s != '\0'; ++s) {
      h ^= static_cast<unsigned char>(*s);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

const char* kind_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::kNone:
      return "none";
    case EventKind::kOpBegin:
      return "op_begin";
    case EventKind::kOpEnd:
      return "op_end";
    case EventKind::kChain:
      return "chain";
    case EventKind::kCompileBegin:
      return "compile_begin";
    case EventKind::kCompileEnd:
      return "compile_end";
    case EventKind::kModuleLoad:
      return "module_load";
    case EventKind::kQuarantine:
      return "quarantine";
    case EventKind::kBreaker:
      return "breaker";
    case EventKind::kGovernor:
      return "governor";
    case EventKind::kPool:
      return "pool";
    case EventKind::kFault:
      return "fault";
    case EventKind::kModule:
      return "module";
    case EventKind::kCrash:
      return "crash";
    case EventKind::kFusionPlan:
      return "fusion_plan";
    case EventKind::kServe:
      return "serve";
  }
  return "?";
}

std::uint32_t backend_code(const char* backend) noexcept {
  if (backend == nullptr) return kBackendUnknown;
  if (std::strcmp(backend, "static") == 0) return kBackendStatic;
  if (std::strcmp(backend, "jit-memory") == 0) return kBackendJitMemory;
  if (std::strcmp(backend, "jit-disk") == 0) return kBackendJitDisk;
  if (std::strcmp(backend, "jit-compile") == 0) return kBackendJitCompile;
  if (std::strcmp(backend, "jit-wait") == 0) return kBackendJitWait;
  if (std::strcmp(backend, "interp") == 0) return kBackendInterp;
  return kBackendUnknown;
}

const char* backend_name(std::uint32_t code) noexcept {
  switch (code) {
    case kBackendStatic:
      return "static";
    case kBackendJitMemory:
      return "jit-memory";
    case kBackendJitDisk:
      return "jit-disk";
    case kBackendJitCompile:
      return "jit-compile";
    case kBackendJitWait:
      return "jit-wait";
    case kBackendInterp:
      return "interp";
    default:
      return "?";
  }
}

void record(EventKind kind, const char* detail, std::uint64_t v0,
            std::uint64_t v1, std::uint32_t a32) noexcept {
  Ring* ring = local_ring();
  if (ring == nullptr) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t seq = g_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t idx =
      ring->cursor.fetch_add(1, std::memory_order_relaxed);
  Slot& s = ring->slots[idx & (kRingEvents - 1)];

  std::uint64_t dw[kDetailWords] = {0, 0, 0};
  if (detail != nullptr) {
    char bytes[kDetailBytes] = {};
    std::strncpy(bytes, detail, kDetailBytes - 1);
    std::memcpy(dw, bytes, kDetailBytes);
  }

  // Seqlock write: invalidate, fill, publish. Readers that observe the
  // same nonzero w0 before and after their payload reads got a coherent
  // event; everyone else skips the slot.
  s.w[0].store(0, std::memory_order_release);
  s.w[1].store(now_ns(), std::memory_order_relaxed);
  s.w[2].store(v0, std::memory_order_relaxed);
  s.w[3].store(v1, std::memory_order_relaxed);
  s.w[4].store(pack_meta(kind, ring->tid, a32), std::memory_order_relaxed);
  s.w[5].store(dw[0], std::memory_order_relaxed);
  s.w[6].store(dw[1], std::memory_order_relaxed);
  s.w[7].store(dw[2], std::memory_order_relaxed);
  s.w[0].store(seq, std::memory_order_release);
}

std::uint64_t total_recorded() noexcept {
  return g_seq.load(std::memory_order_relaxed);
}

std::uint64_t total_dropped() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

std::size_t ring_count() noexcept {
  return std::min(g_ring_claims.load(std::memory_order_relaxed), kMaxRings);
}

std::vector<Event> snapshot() {
  std::vector<Event> out;
  const std::size_t rings = ring_count();
  out.reserve(rings * 8);
  for (std::size_t r = 0; r < rings; ++r) {
    const Ring* ring = g_rings[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (std::size_t i = 0; i < kRingEvents; ++i) {
      Event e;
      if (read_slot(ring->slots[i], &e)) out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return out;
}

std::string format_event(const Event& e) {
  std::string out = "seq=" + std::to_string(e.seq);
  out += " tid=" + std::to_string(e.tid);
  out += " t_us=" + std::to_string(e.t_ns / 1000);
  out += " ";
  out += kind_name(e.kind);
  if (e.detail[0] != '\0') {
    out += " ";
    out += e.detail;
  }
  out += " v0=" + std::to_string(e.v0);
  out += " v1=" + std::to_string(e.v1);
  if (e.kind == EventKind::kOpEnd) {
    out += " backend=";
    out += backend_name(e.a32);
  } else {
    out += " a32=" + std::to_string(e.a32);
  }
  return out;
}

void dump_to_fd(int fd, std::size_t max_per_ring) noexcept {
  const std::size_t rings =
      std::min(g_ring_claims.load(std::memory_order_relaxed), kMaxRings);
  for (std::size_t r = 0; r < rings; ++r) {
    const Ring* ring = g_rings[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t cursor =
        ring->cursor.load(std::memory_order_relaxed);
    if (cursor == 0) continue;
    const std::uint64_t live = cursor < kRingEvents ? cursor : kRingEvents;
    const std::uint64_t take =
        max_per_ring != 0 && max_per_ring < live ? max_per_ring : live;
    // Oldest→newest of the tail, so the last line of each ring is the
    // thread's final recorded act.
    for (std::uint64_t k = take; k > 0; --k) {
      const std::uint64_t idx = (cursor - k) & (kRingEvents - 1);
      Event e;
      if (!read_slot(ring->slots[idx], &e)) continue;
      fd_str(fd, "  seq=");
      fd_u64(fd, e.seq);
      fd_str(fd, " tid=");
      fd_u64(fd, e.tid);
      fd_str(fd, " t_us=");
      fd_u64(fd, e.t_ns / 1000);
      fd_str(fd, " ");
      fd_str(fd, kind_name(e.kind));
      if (e.detail[0] != '\0') {
        fd_str(fd, " ");
        fd_str(fd, e.detail);
      }
      fd_str(fd, " v0=");
      fd_u64(fd, e.v0);
      fd_str(fd, " v1=");
      fd_hex(fd, e.v1);
      if (e.kind == EventKind::kOpEnd) {
        fd_str(fd, " backend=");
        fd_str(fd, backend_name(e.a32));
      } else if (e.a32 != 0) {
        fd_str(fd, " a32=");
        fd_u64(fd, e.a32);
      }
      fd_str(fd, "\n");
    }
  }
}

}  // namespace pygb::flightrec
