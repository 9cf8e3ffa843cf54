// pygb/faultinj.cpp — spec parsing and the deterministic firing engine.
#include "pygb/faultinj.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "pygb/obs/flightrec.hpp"

namespace pygb::faultinj {

namespace {

struct Rule {
  std::string site;
  Action action = Action::kFail;
  /// Firing threshold scaled to 2^32: a draw below it fires. p=1 maps to
  /// UINT32_MAX + 1 (always), p=0 to 0 (never).
  std::uint64_t threshold = std::uint64_t{1} << 32;
  std::uint64_t budget = ~std::uint64_t{0};  ///< n= remaining fires
};

struct Engine {
  std::mutex mu;
  std::vector<Rule> rules;
  std::string spec;
  std::uint64_t seed = 0;
  std::uint64_t draws = 0;  ///< global draw counter: determinism anchor
  std::uint64_t fired = 0;
};

/// Leaked on purpose (at-exit safety, same discipline as pygb::obs).
Engine& engine() {
  static auto* e = new Engine();
  return *e;
}

/// splitmix64 of (seed, draw index): every draw is a pure function of the
/// spec seed and how many draws preceded it — replayable across runs.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string parse_site(std::string_view word) {
  for (const char* known : site::kAll) {
    if (word == known) return std::string(word);
  }
  throw std::invalid_argument("pygb: unknown fault site '" +
                              std::string(word) + "'");
}

Action parse_action(std::string_view word) {
  if (word == "hang") return Action::kHang;
  if (word == "fail") return Action::kFail;
  if (word == "slow") return Action::kSlow;
  if (word == "corrupt") return Action::kCorrupt;
  throw std::invalid_argument("pygb: unknown fault action '" +
                              std::string(word) + "'");
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

}  // namespace

namespace detail {

std::atomic<bool> g_armed{false};

Decision check_slow(const char* site) noexcept {
  auto& e = engine();
  std::lock_guard lock(e.mu);
  for (auto& rule : e.rules) {
    if (rule.site != site) continue;
    if (rule.budget == 0) continue;
    const std::uint64_t draw =
        mix(e.seed, e.draws++) & 0xffffffffULL;  // 32-bit uniform draw
    if (draw >= rule.threshold) continue;
    --rule.budget;
    ++e.fired;
    flightrec::record(flightrec::EventKind::kFault, site, e.fired,
                      static_cast<std::uint64_t>(rule.action));
    return Decision{rule.action};
  }
  return {};
}

}  // namespace detail

const char* to_string(Action a) noexcept {
  switch (a) {
    case Action::kNone:
      return "none";
    case Action::kHang:
      return "hang";
    case Action::kFail:
      return "fail";
    case Action::kSlow:
      return "slow";
    case Action::kCorrupt:
      return "corrupt";
  }
  return "?";
}

void configure(const std::string& spec) {
  std::vector<Rule> rules;
  std::uint64_t seed = 0;
  for (std::string_view item : split(spec, ',')) {
    if (item.empty()) continue;
    if (item.substr(0, 5) == "seed=") {
      seed = std::strtoull(std::string(item.substr(5)).c_str(), nullptr, 10);
      continue;
    }
    const auto fields = split(item, ':');
    if (fields.size() < 2 || fields[0].empty()) {
      throw std::invalid_argument("pygb: malformed fault rule '" +
                                  std::string(item) +
                                  "' (want site:action[:p=..][:n=..])");
    }
    Rule rule;
    rule.site = parse_site(fields[0]);
    rule.action = parse_action(fields[1]);
    for (std::size_t i = 2; i < fields.size(); ++i) {
      const std::string_view f = fields[i];
      if (f.substr(0, 2) == "p=") {
        const double p = std::strtod(std::string(f.substr(2)).c_str(), nullptr);
        if (p < 0.0 || p > 1.0) {
          throw std::invalid_argument(
              "pygb: fault probability out of [0,1] in '" + std::string(item) +
              "'");
        }
        rule.threshold =
            static_cast<std::uint64_t>(p * 4294967296.0);  // p * 2^32
      } else if (f.substr(0, 2) == "n=") {
        rule.budget =
            std::strtoull(std::string(f.substr(2)).c_str(), nullptr, 10);
      } else {
        throw std::invalid_argument("pygb: unknown fault modifier '" +
                                    std::string(f) + "' in '" +
                                    std::string(item) + "'");
      }
    }
    rules.push_back(std::move(rule));
  }

  auto& e = engine();
  std::lock_guard lock(e.mu);
  e.rules = std::move(rules);
  e.spec = spec;
  e.seed = seed;
  e.draws = 0;
  e.fired = 0;
  detail::g_armed.store(!e.rules.empty(), std::memory_order_relaxed);
}

std::string current_spec() {
  auto& e = engine();
  std::lock_guard lock(e.mu);
  return e.rules.empty() ? std::string() : e.spec;
}

std::uint64_t fired_count() noexcept {
  auto& e = engine();
  std::lock_guard lock(e.mu);
  return e.fired;
}

double jitter_unit(std::uint64_t stream, std::uint64_t index) noexcept {
  std::uint64_t seed;
  if (armed()) {
    auto& e = engine();
    std::lock_guard lock(e.mu);
    seed = e.seed;  // PYGB_FAULTS seed=N: replayable chaos schedules
  } else {
    // Process entropy, captured once: cheap, allocation-free, and distinct
    // across processes (time) and ASLR images (heap address).
    static const std::uint64_t entropy = [] {
      const auto t =
          std::chrono::steady_clock::now().time_since_epoch().count();
      return mix(static_cast<std::uint64_t>(t),
                 reinterpret_cast<std::uintptr_t>(&engine()));
    }();
    seed = entropy;
  }
  const std::uint64_t z = mix(seed ^ stream, index);
  return static_cast<double>(z >> 11) * 0x1.0p-53;  // 53 bits → [0,1)
}

void init_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* spec = std::getenv("PYGB_FAULTS");
    if (spec == nullptr || *spec == '\0') return;
    try {
      configure(spec);
      std::fprintf(stderr, "pygb: fault injection armed: %s\n", spec);
    } catch (const std::exception& e) {
      // A typo'd spec must not silently run a chaos suite with no chaos.
      std::fprintf(stderr, "pygb: fatal: bad PYGB_FAULTS spec: %s\n",
                   e.what());
      std::abort();
    }
  });
}

namespace {
/// Arm from the environment during static init of any linking binary.
struct EnvActivation {
  EnvActivation() { init_from_env(); }
} g_env_activation;
}  // namespace

}  // namespace pygb::faultinj
