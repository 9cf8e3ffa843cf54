// serve/protocol.cpp — framing and payload grammar (protocol.hpp).
#include "serve/protocol.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "pygb/config.hpp"

namespace pygb::serve {

namespace {

/// Read exactly n bytes; returns bytes read (short on EOF), -1 on error.
ssize_t read_full(int fd, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r == 0) break;  // EOF
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    got += static_cast<std::size_t>(r);
  }
  return static_cast<ssize_t>(got);
}

bool write_full(int fd, const char* buf, std::size_t n) {
  std::size_t put = 0;
  while (put < n) {
    const ssize_t w = ::write(fd, buf + put, n - put);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    put += static_cast<std::size_t>(w);
  }
  return true;
}

/// Strict full-string unsigned parse ("", "12x", "-3" all fail).
bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s[0] == '-') return false;
  char* end = nullptr;
  const std::string tmp(s);
  errno = 0;
  const unsigned long long v = std::strtoull(tmp.c_str(), &end, 10);
  if (errno != 0 || end != tmp.c_str() + tmp.size()) return false;
  out = v;
  return true;
}

bool parse_f64(std::string_view s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const std::string tmp(s);
  errno = 0;
  const double v = std::strtod(tmp.c_str(), &end);
  if (errno != 0 || end != tmp.c_str() + tmp.size()) return false;
  out = v;
  return true;
}

/// One-line sanitization for values embedded in key=value payloads.
std::string one_line(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out += (c == '\n' || c == '\r') ? ' ' : c;
  return out;
}

}  // namespace

std::uint64_t max_request_bytes() {
  static const std::uint64_t cap =
      config::get("PYGB_SERVE_MAX_REQUEST_BYTES");
  return cap;
}

const char* frame_status_name(FrameStatus s) noexcept {
  switch (s) {
    case FrameStatus::kOk:
      return "ok";
    case FrameStatus::kClosed:
      return "closed";
    case FrameStatus::kTruncated:
      return "truncated";
    case FrameStatus::kTooLarge:
      return "too-large";
    case FrameStatus::kIoError:
      return "io-error";
  }
  return "?";
}

FrameStatus read_frame(int fd, std::string& payload,
                       std::uint64_t max_bytes) {
  payload.clear();
  unsigned char prefix[4];
  const ssize_t got =
      read_full(fd, reinterpret_cast<char*>(prefix), sizeof prefix);
  if (got < 0) return FrameStatus::kIoError;
  if (got == 0) return FrameStatus::kClosed;
  if (got < static_cast<ssize_t>(sizeof prefix)) {
    return FrameStatus::kTruncated;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            (static_cast<std::uint32_t>(prefix[1]) << 8) |
                            (static_cast<std::uint32_t>(prefix[2]) << 16) |
                            (static_cast<std::uint32_t>(prefix[3]) << 24);
  // The cap guards the ALLOCATION: an adversarial 4 GiB declaration is
  // rejected before a single payload byte is read or reserved.
  if (len > max_bytes) return FrameStatus::kTooLarge;
  if (len == 0) return FrameStatus::kOk;
  payload.resize(len);
  const ssize_t body = read_full(fd, payload.data(), len);
  if (body < 0) {
    payload.clear();
    return FrameStatus::kIoError;
  }
  if (body < static_cast<ssize_t>(len)) {
    payload.clear();
    return FrameStatus::kTruncated;
  }
  return FrameStatus::kOk;
}

bool write_frame(int fd, std::string_view payload) {
  if (payload.size() > 0xffffffffULL) return false;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const unsigned char prefix[4] = {
      static_cast<unsigned char>(len & 0xff),
      static_cast<unsigned char>((len >> 8) & 0xff),
      static_cast<unsigned char>((len >> 16) & 0xff),
      static_cast<unsigned char>((len >> 24) & 0xff),
  };
  if (!write_full(fd, reinterpret_cast<const char*>(prefix), sizeof prefix)) {
    return false;
  }
  return write_full(fd, payload.data(), payload.size());
}

const char* code_name(Code c) noexcept {
  switch (c) {
    case Code::kOk:
      return "ok";
    case Code::kOverloaded:
      return "overloaded";
    case Code::kShuttingDown:
      return "shutting_down";
    case Code::kInvalidRequest:
      return "invalid_request";
    case Code::kDeadlineExceeded:
      return "deadline_exceeded";
    case Code::kResourceExhausted:
      return "resource_exhausted";
    case Code::kCancelled:
      return "cancelled";
    case Code::kInternal:
      return "internal";
  }
  return "?";
}

namespace {

bool code_from_name(std::string_view name, Code& out) {
  for (Code c : {Code::kOk, Code::kOverloaded, Code::kShuttingDown,
                 Code::kInvalidRequest, Code::kDeadlineExceeded,
                 Code::kResourceExhausted, Code::kCancelled,
                 Code::kInternal}) {
    if (name == code_name(c)) {
      out = c;
      return true;
    }
  }
  return false;
}

/// Split payload into trimmed lines (tolerates trailing \n and \r\n).
std::vector<std::string_view> payload_lines(std::string_view payload) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start < payload.size()) {
    std::size_t end = payload.find('\n', start);
    if (end == std::string_view::npos) end = payload.size();
    std::string_view line = payload.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) lines.push_back(line);
    start = end + 1;
  }
  return lines;
}

}  // namespace

bool parse_request(std::string_view payload, Request& out,
                   std::string& error) {
  out = Request{};
  const auto lines = payload_lines(payload);
  if (lines.empty() || lines[0] != kMagic) {
    error = "bad magic: expected first line '" + std::string(kMagic) + "'";
    return false;
  }
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      error = "malformed line (want key=value): '" + std::string(line) + "'";
      return false;
    }
    const std::string_view key = line.substr(0, eq);
    const std::string_view val = line.substr(eq + 1);
    bool num_ok = true;
    if (key == "algo") {
      out.algo = std::string(val);
    } else if (key == "graph") {
      out.graph = std::string(val);
    } else if (key == "source") {
      num_ok = parse_u64(val, out.source);
    } else if (key == "damping") {
      num_ok = parse_f64(val, out.damping) && out.damping >= 0.0 &&
               out.damping < 1.0;
    } else if (key == "threshold") {
      num_ok = parse_f64(val, out.threshold) && out.threshold >= 0.0;
    } else if (key == "max_iters") {
      num_ok = parse_u64(val, out.max_iters) && out.max_iters > 0;
    } else if (key == "mem_limit") {
      num_ok = parse_u64(val, out.mem_limit_bytes);
    } else if (key == "timeout_ms") {
      num_ok = parse_u64(val, out.timeout_ms);
    } else {
      // Unknown keys are REJECTED, not ignored: a typo'd knob silently
      // running with defaults is how "bounded" requests turn unbounded.
      error = "unknown request key '" + std::string(key) + "'";
      return false;
    }
    if (!num_ok) {
      error = "bad value for '" + std::string(key) + "': '" +
              std::string(val) + "'";
      return false;
    }
  }
  if (out.algo != "bfs" && out.algo != "sssp" && out.algo != "pagerank" &&
      out.algo != "tc" && out.algo != "cc") {
    error = out.algo.empty()
                ? "missing algo"
                : "unknown algo '" + out.algo +
                      "' (want bfs|sssp|pagerank|tc|cc)";
    return false;
  }
  if (out.graph.empty()) {
    error = "missing graph";
    return false;
  }
  return true;
}

std::string render_request(const Request& req) {
  std::string out = kMagic;
  out += "\nalgo=" + one_line(req.algo);
  out += "\ngraph=" + one_line(req.graph);
  if (req.source != 0) out += "\nsource=" + std::to_string(req.source);
  if (req.damping != 0.85) {
    out += "\ndamping=" + std::to_string(req.damping);
  }
  if (req.threshold != 1e-5) {
    out += "\nthreshold=" + std::to_string(req.threshold);
  }
  if (req.max_iters != 100) {
    out += "\nmax_iters=" + std::to_string(req.max_iters);
  }
  if (req.mem_limit_bytes != 0) {
    out += "\nmem_limit=" + std::to_string(req.mem_limit_bytes);
  }
  if (req.timeout_ms != 0) {
    out += "\ntimeout_ms=" + std::to_string(req.timeout_ms);
  }
  out += "\n";
  return out;
}

std::string Response::render() const {
  std::string out = kMagic;
  out += "\ncode=";
  out += code_name(code);
  if (!error.empty()) out += "\nerror=" + one_line(error);
  if (retry_after_ms != 0) {
    out += "\nretry_after_ms=" + std::to_string(retry_after_ms);
  }
  out += "\nelapsed_ms=" + std::to_string(elapsed_ms);
  if (!result.empty()) {
    out += "\n";
    out += result;
    if (out.back() == '\n') out.pop_back();
  }
  out += "\n";
  return out;
}

bool parse_response(std::string_view payload, Response& out,
                    std::string& error) {
  out = Response{};
  out.result.clear();
  const auto lines = payload_lines(payload);
  if (lines.empty() || lines[0] != kMagic) {
    error = "bad magic in response";
    return false;
  }
  bool saw_code = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      error = "malformed response line '" + std::string(line) + "'";
      return false;
    }
    const std::string_view key = line.substr(0, eq);
    const std::string_view val = line.substr(eq + 1);
    if (key == "code") {
      if (!code_from_name(val, out.code)) {
        error = "unknown response code '" + std::string(val) + "'";
        return false;
      }
      saw_code = true;
    } else if (key == "error") {
      out.error = std::string(val);
    } else if (key == "retry_after_ms") {
      if (!parse_u64(val, out.retry_after_ms)) {
        error = "bad retry_after_ms";
        return false;
      }
    } else if (key == "elapsed_ms") {
      if (!parse_u64(val, out.elapsed_ms)) {
        error = "bad elapsed_ms";
        return false;
      }
    } else {
      out.result += std::string(line) + "\n";
    }
  }
  if (!saw_code) {
    error = "response missing code";
    return false;
  }
  return true;
}

int connect_client(const std::string& target, std::string& error) {
  if (target.rfind("unix:", 0) == 0) {
    const std::string path = target.substr(5);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      error = "unix socket path too long: " + path;
      return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      error = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      error = "connect " + path + ": " + std::strerror(errno);
      ::close(fd);
      return -1;
    }
    return fd;
  }
  if (target.rfind("tcp:", 0) == 0) {
    std::uint64_t port = 0;
    if (!parse_u64(target.substr(4), port) || port == 0 || port > 65535) {
      error = "bad tcp port in '" + target + "'";
      return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      error = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      error = "connect " + target + ": " + std::strerror(errno);
      ::close(fd);
      return -1;
    }
    return fd;
  }
  error = "bad target '" + target + "' (want unix:<path> or tcp:<port>)";
  return -1;
}

}  // namespace pygb::serve
