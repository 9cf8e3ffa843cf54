// io/scan.hpp — the byte scanner under the Matrix Market and COO text
// readers. The input is read through the stream's streambuf into a 64 KiB
// window; whitespace is tested byte-wise (the C locale's isspace set, not
// the locale-bound std::isspace) and numbers are converted with
// std::from_chars. Each parse helper reproduces, byte for byte, what the
// istream extraction it replaced accepted and produced.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <streambuf>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace pygb::io::scan {

/// The C locale's isspace set: ' ', \t, \n, \v, \f, \r.
inline bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

inline bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// A decimal integer as operator>> reads one: an optional sign, then
/// digits, stopping at the first other byte. Advances p past it; false when
/// there are no digits or the value overflows.
inline bool parse_int(const char*& p, const char* end, long long& out) {
  const char* s = p;
  if (s != end && *s == '+') {
    ++s;
    if (s == end || !is_digit(*s)) return false;  // "+-1" is not a number
  }
  const auto [q, ec] = std::from_chars(s, end, out);
  if (ec != std::errc{}) return false;
  p = q;
  return true;
}

/// strtod over a whole token, which must be consumed entirely; the result
/// (inf on overflow, 0 or a subnormal on underflow) stands as strtod gives
/// it. Embedded NULs end the conversion as they do for strtod.
inline bool strtod_whole(std::string_view tok, double& out) {
  const std::string s(tok);
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0';
}

/// A whole token as strtod_whole reads it, fast. A plain integer of up to
/// 15 digits converts exactly; a decimal literal goes to std::from_chars,
/// which rounds as strtod does. Anything they reject or only partly consume
/// (hex floats, "inf"/"nan", out-of-range exponents) goes to strtod.
inline bool parse_double_token(std::string_view tok, double& out) {
  const char* p = tok.data();
  const char* end = p + tok.size();
  const bool neg = p != end && *p == '-';
  if (p != end && (*p == '-' || *p == '+')) ++p;
  if (end - p >= 1 && end - p <= 15) {
    std::uint64_t u = 0;
    const char* q = p;
    for (; q != end && is_digit(*q); ++q) u = u * 10 + (*q - '0');
    if (q == end) {
      out = neg ? -static_cast<double>(u) : static_cast<double>(u);
      return true;
    }
  }
  if (p != end && (is_digit(*p) || *p == '.')) {
    double d = 0;
    const auto [q, ec] = std::from_chars(p, end, d);
    if (ec == std::errc{} && q == end) {
      out = neg ? -d : d;
      return true;
    }
  }
  return strtod_whole(tok, out);
}

/// A double as operator>> reads one in the C locale: the longest prefix of
/// [sign] digits [. digits] [e [sign] digits] (an exponent only after a
/// mantissa digit), converted as strtod would; fails unless that takes the
/// whole prefix and the result is finite ("1e999", "nan" and "inf" fail,
/// "1e-400" reads 0). Advances p past the prefix.
inline bool parse_stream_double(const char*& p, const char* end,
                                double& out) {
  const char* q = p;
  if (q != end && (*q == '+' || *q == '-')) ++q;
  bool mantissa = false, dot = false, sci = false;
  for (; q != end; ++q) {
    if (is_digit(*q)) {
      mantissa = true;
    } else if (*q == '.' && !dot && !sci) {
      dot = true;
    } else if ((*q == 'e' || *q == 'E') && mantissa && !sci) {
      sci = true;
      if (q + 1 != end && (q[1] == '+' || q[1] == '-')) ++q;
    } else {
      break;
    }
  }
  const char* s = p;
  const bool neg = s != q && *s == '-';
  if (s != q && (*s == '+' || *s == '-')) ++s;
  double d = 0;
  const auto [r, ec] = std::from_chars(s, q, d);
  if (ec == std::errc{} && r == q) {
    d = neg ? -d : d;
  } else if (!strtod_whole({p, static_cast<std::size_t>(q - p)}, d) ||
             std::isinf(d)) {
    return false;
  }
  out = d;
  p = q;
  return true;
}

/// A window over a streambuf, refilled in kBlock reads with sgetn. The
/// scanner may read the stream past the last byte its caller consumes.
class Window {
 public:
  static constexpr std::size_t kBlock = 64 * 1024;

  explicit Window(std::streambuf& sb) : sb_(sb), buf_(kBlock) {}

  /// Read the next whitespace-delimited token; empty at the end of input.
  /// The view stays valid until the next read.
  std::string_view next_token() {
    const std::string_view t = token();
    pos_ += t.size();
    return t;
  }

  /// Read an integer as `in >> out` does: whitespace, then parse_int, which
  /// may stop inside a token; the rest is left for the next read.
  bool next_int(long long& out) {
    const std::string_view t = token();
    const char* p = t.data();
    if (t.empty() || !parse_int(p, p + t.size(), out)) return false;
    pos_ += static_cast<std::size_t>(p - t.data());
    return true;
  }

  /// Read the next line as std::getline does: up to '\n' (consumed, not
  /// returned) or the end of input; false when no bytes are left. The view
  /// stays valid until the next read.
  bool next_line(std::string_view& line) {
    if (pos_ == end_ && !fill()) return false;
    line = run([](char c) { return c == '\n'; });
    pos_ += line.size();
    if (pos_ < end_) ++pos_;  // the '\n'
    return true;
  }

 private:
  /// Skip whitespace; false once the input is exhausted.
  bool skip_space() {
    for (;;) {
      for (; pos_ < end_; ++pos_) {
        if (!is_space(buf_[pos_])) return true;
      }
      if (!fill()) return false;
    }
  }

  /// The bytes from the current position up to, not including, the first
  /// byte for which stop(c) holds, or to the end of input. The whole run is
  /// in the window: one longer than the window grows it. The view stays
  /// valid until the next read.
  template <typename Stop>
  std::string_view run(Stop stop) {
    std::size_t q = pos_;
    for (;;) {
      for (; q < end_; ++q) {
        if (stop(buf_[q])) return view(q);
      }
      const std::size_t have = q - pos_;
      const bool more = fill();  // moves the unread bytes to the front
      q = pos_ + have;
      if (!more) return view(q);
    }
  }

  /// The next whitespace-delimited token (skipping whitespace before it),
  /// not consumed; empty at the end of input.
  std::string_view token() {
    if (!skip_space()) return {};
    return run([](char c) { return is_space(c); });
  }

  std::string_view view(std::size_t q) const {
    return {buf_.data() + pos_, q - pos_};
  }

  /// Append the next block to the unread bytes, moved to the front of the
  /// window; the window doubles when the unread bytes fill it. False at the
  /// end of input.
  bool fill() {
    if (eof_) return false;
    const std::size_t keep = end_ - pos_;
    if (pos_ > 0) {
      std::memmove(buf_.data(), buf_.data() + pos_, keep);
      pos_ = 0;
      end_ = keep;
    }
    if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
    const std::streamsize got =
        sb_.sgetn(buf_.data() + end_,
                  static_cast<std::streamsize>(buf_.size() - end_));
    if (got <= 0) {
      eof_ = true;
      return false;
    }
    end_ += static_cast<std::size_t>(got);
    return true;
  }

  std::streambuf& sb_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  bool eof_ = false;
};

}  // namespace pygb::io::scan
