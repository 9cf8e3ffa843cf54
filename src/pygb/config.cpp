// pygb/config.cpp — the one knob reader (config.hpp).
#include "pygb/config.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace pygb::config {

namespace {

/// The variable's text; nullptr when unset, or empty for a string row.
const char* raw(const Row& row) noexcept {
  const char* v = std::getenv(row.name);
  return v != nullptr && (*v != '\0' || row.kind != kString) ? v : nullptr;
}

}  // namespace

std::uint64_t parse(const Row& row, std::string_view text) {
  std::string want;
  if (row.kind == kU64) {
    std::uint64_t v = 0;
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc() && stop == end && v >= row.lo && v <= row.hi) {
      return v;
    }
    want = "an integer in [" + std::to_string(row.lo) + ", " +
           std::to_string(row.hi) + "] (" + row.doc + ")";
  } else if (row.kind == kBool) {
    if (text == "1" || text == "on" || text == "true") return 1;
    if (text == "0" || text == "off" || text == "false") return 0;
    want = std::string("1/0, on/off or true/false (") + row.doc + ")";
  } else if (row.kind == kEnum) {
    std::string_view rest = row.doc;
    for (std::uint64_t i = 0;; ++i) {
      const std::size_t bar = rest.find('|');
      if (rest.substr(0, bar) == text) return i;
      if (bar == std::string_view::npos) break;
      rest.remove_prefix(bar + 1);
    }
    want = std::string("one of ") + row.doc;
  } else {
    return 0;
  }
  throw BadValue("pygb: bad " + std::string(row.name) + "='" +
                 std::string(text) + "': want " + want);
}

std::uint64_t get(Knob k, std::uint64_t fallback) {
  if (const char* v = raw(*k.row)) return parse(*k.row, v);
  return k.row->def != nullptr ? parse(*k.row, k.row->def) : fallback;
}

std::string str(Knob k, std::string fallback) {
  if (const char* v = raw(*k.row)) return v;
  return k.row->def != nullptr ? std::string(k.row->def) : fallback;
}

const char* effective(const Row& row, bool& from_env) {
  const char* v = raw(row);
  from_env = v != nullptr;
  if (v != nullptr) parse(row, v);
  return from_env ? v : row.def;
}

void fatal(const BadValue& e) noexcept {
  std::fprintf(stderr, "%s\n", e.what());
  std::abort();
}

}  // namespace pygb::config
