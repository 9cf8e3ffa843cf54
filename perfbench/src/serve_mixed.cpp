// serve-mixed: an in-process pygb_serve on a private unix socket. An
// untraced run drives it first with one open-loop generator at a fixed,
// light rate (the latency figures), with at most nproc connections in
// flight, and then with one closed-loop client sending back to back (the
// throughput figure: requests the server completes per second, over the
// closed loop's fastest second). A traced
// run replaces the closed loop with a stepped-rate sweep for
// serve.max_rate_per_s. Requests rotate deterministically through
// bfs/sssp/pagerank/cc over small rmat:/er: specs, and a fixed share names
// graphs outside the server's graph LRU. The protocol, graph resolution
// and execution dominate. The admission window starts as wide as the
// server's 4 workers and queue-cap shedding needs 64 waiting connections,
// so neither engages with at most nproc (4 here) requests in flight.
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <random>
#include <thread>

#include "generators/erdos_renyi.hpp"
#include "generators/rmat.hpp"
#include "loadgen.hpp"
#include "pygb/jit/registry.hpp"
#include "pygb/obs/obs.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pygb::serve::Request;
using pygb::serve::Response;
using Span = Tracer::Span;

// The open loop's offered rate: a tenth of the lowest rate one
// closed-loop client reached (~900 requests/s on the 4-vCPU machine of
// README.md), so a request rarely waits behind another and the open loop
// measures a request's own latency. Its share of an untraced run leaves
// ~1200 open-loop requests in a 15 s run, 75 of them sssp, which keeps the
// tail inside the sssp class (see kRotation).
constexpr double kRate = 100.0;  // requests per second
constexpr double kOpenShare = 0.8;
// The closed loop has one client: with nproc clients the server's rate in
// one process was ~1000 or ~2300 requests/s depending on the process
// (README.md, noise finding 4). Its requests cycle through this many
// stream entries.
constexpr std::size_t kClosedPool = 4096;
// The traced run's stepped-rate sweep.
constexpr double kLimitMs = 25.0;     // tail latency limit of the sweep
constexpr double kSweepStart = 200;   // first rate of the sweep
constexpr double kSweepStep = 1.15;   // rate factor between sweep steps
constexpr std::size_t kStepN = 200;   // requests per sweep step: the tail
                                      // is p95 at every step

// Hot specs stay in the graph LRU; cold specs rotate through more graphs
// than the LRU holds, so each names a graph the server must build.
const char* const kHot[] = {"er:160", "rmat:7", "rmat:8"};
constexpr int kColdSpecs = 16;
std::string cold_spec(std::size_t i) {
  return "er:" + std::to_string(96 + 4 * (i % kColdSpecs));
}

/// The deterministic class rotation: {algo, hot spec index or -1 = cold}.
/// Shares keep the tail inside a class, never at a class boundary: bfs and
/// cc (the fastest, ~0.3 ms) are 7/16, pagerank (~0.7 ms, 2 of them on
/// cold graphs) 8/16 — the median sits in it — and sssp on the largest
/// graph (~10 ms) 1/16. The tail (10 samples beyond it, of ~1200) then
/// falls at sssp's own ~p87: inside the class, and below the rare requests
/// a host stall or a second sssp in flight delays.
struct Slot {
  const char* algo;
  int hot;
};
const Slot kRotation[] = {
    {"pagerank", 0}, {"bfs", 1},       {"pagerank", 1}, {"cc", 0},
    {"sssp", 2},     {"pagerank", -1}, {"bfs", 0},      {"pagerank", 0},
    {"cc", 1},       {"pagerank", 1},  {"bfs", 1},      {"pagerank", -1},
    {"cc", 0},       {"pagerank", 0},  {"bfs", 0},      {"pagerank", 1},
};
constexpr std::size_t kRotationLen = sizeof kRotation / sizeof kRotation[0];

struct Item {
  Request req;
  const std::map<std::string, double>* expected = nullptr;
};

/// The server's edge list for a spec, from the same generator calls
/// (rmat:<s> = gen::rmat scale s with its default seed and edge factor;
/// er:<n> = gen::paper_graph(n, 42, symmetric, weights 1..5)).
pygb::gen::EdgeList spec_edges(const std::string& spec) {
  const std::string arg = spec.substr(spec.find(':') + 1);
  if (spec.rfind("rmat:", 0) == 0) {
    pygb::gen::RmatParams p;
    p.scale = static_cast<unsigned>(std::stoul(arg));
    return pygb::gen::rmat(p);
  }
  return pygb::gen::paper_graph(std::stoul(arg), 42, true, 1.0, 5.0);
}

ref::Graph spec_graph(const std::string& spec) {
  const pygb::gen::EdgeList el = spec_edges(spec);
  std::vector<ref::Arc> arcs;
  for (const auto& e : el.edges) arcs.push_back({e.src, e.dst, e.weight});
  return ref::make_graph(el.num_vertices, arcs);
}

class Stream {
 public:
  explicit Stream(std::uint64_t seed) : rng_(seed) {}

  /// Generate requests [0, n) and their reference answers (deterministic
  /// for a seed). Call before handing indices below n to other threads.
  void ensure(std::size_t n) {
    while (items_.size() < n) extend();
  }
  const Item& operator[](std::size_t k) const { return items_[k]; }

 private:
  struct SpecInfo {
    ref::Graph g;
    std::vector<std::uint64_t> sources;  ///< seeded, each reaching >= n/2
  };

  SpecInfo& info(const std::string& spec) {
    auto it = specs_.find(spec);
    if (it != specs_.end()) return it->second;
    SpecInfo si;
    si.g = spec_graph(spec);
    std::vector<std::uint64_t> good;
    for (std::uint64_t v = 0; v < si.g.n; ++v) {
      if (ref::bfs_levels(si.g, v, nullptr).nvals() * 2 >= si.g.n) {
        good.push_back(v);
      }
    }
    std::shuffle(good.begin(), good.end(), rng_);
    good.resize(std::min<std::size_t>(good.size(), 4));
    si.sources = good;
    return specs_.emplace(spec, std::move(si)).first->second;
  }

  void extend() {
    const std::size_t k = items_.size();
    const Slot& slot = kRotation[k % kRotationLen];
    Item item;
    item.req.algo = slot.algo;
    item.req.graph =
        slot.hot >= 0 ? kHot[slot.hot] : cold_spec(cold_next_++);
    SpecInfo& si = info(item.req.graph);
    const std::string algo = item.req.algo;
    if (algo == "bfs" || algo == "sssp") {
      item.req.source = si.sources[rng_() % si.sources.size()];
    }
    const std::string key = algo + "|" + item.req.graph + "|" +
                            std::to_string(item.req.source);
    auto it = expected_.find(key);
    if (it == expected_.end()) {
      std::map<std::string, double> want;
      if (algo == "bfs") {
        std::uint64_t depth = 0;
        want["reached"] = static_cast<double>(
            ref::bfs_levels(si.g, item.req.source, &depth).nvals());
        want["depth"] = static_cast<double>(depth);
      } else if (algo == "sssp") {
        const ref::SparseVec d = ref::shortest_paths(si.g, item.req.source);
        want["reached"] = static_cast<double>(d.nvals());
        want["checksum"] = d.sum();
      } else if (algo == "pagerank") {
        const ref::SparseVec pr = ref::pagerank(
            si.g, item.req.damping, item.req.threshold,
            static_cast<unsigned>(item.req.max_iters));
        want["nvals"] = static_cast<double>(pr.nvals());
        want["sum"] = pr.sum();
      } else {
        // The reply's components= carries the propagation round count.
        want["components"] = static_cast<double>(ref::propagation_rounds(si.g));
      }
      it = expected_.emplace(key, std::move(want)).first;
    }
    item.expected = &it->second;
    items_.push_back(std::move(item));
  }

  std::mt19937_64 rng_;
  std::size_t cold_next_ = 0;
  std::map<std::string, SpecInfo> specs_;
  std::map<std::string, std::map<std::string, double>> expected_;
  std::deque<Item> items_;  // deque: references stay valid on growth
};

enum class Outcome : char { kOk, kShed, kWrong, kTransport };

struct Timing {
  double connect_ms = 0, round_trip_ms = 0;
  Outcome outcome = Outcome::kTransport;
  Response resp;
  std::string why;
};

/// One request over a fresh connection: connect, send, and read and parse
/// the reply into `t`. True when the server answered ok. The reply is
/// checked afterwards by check(), outside the request's timing.
bool round_trip(const std::string& target, const Item& item, bool traced,
                Tracer& traced_tr, Timing& t) {
  namespace sv = pygb::serve;
  static Tracer off;  // never enabled: untraced requests record nothing
  Tracer& tr = traced ? traced_tr : off;
  Span span(tr, "serve.request");
  const auto t0 = Clock::now();
  std::string err;
  int fd;
  {
    Span s(tr, "serve.connect");
    fd = sv::connect_client(target, err);
  }
  t.connect_ms = ms_since(t0);
  if (fd < 0) {
    t.why = "connect: " + err;
    return false;
  }
  std::string payload, reply;
  {
    Span s(tr, "serve.protocol");
    payload = sv::render_request(item.req);
  }
  bool io_ok = sv::write_frame(fd, payload);
  {
    Span s(tr, "serve.wait");
    io_ok = io_ok && sv::read_frame(fd, reply, sv::max_request_bytes()) ==
                         sv::FrameStatus::kOk;
  }
  ::close(fd);
  bool parsed;
  {
    Span s(tr, "serve.protocol");
    parsed = io_ok && sv::parse_response(reply, t.resp, err);
  }
  t.round_trip_ms = ms_since(t0);
  if (!parsed) {
    t.why = "transport or unparsable reply: " + err;
    return false;
  }
  if (!t.resp.ok()) {
    t.outcome = Outcome::kShed;
    t.why = std::string(sv::code_name(t.resp.code)) + ": " + t.resp.error;
    return false;
  }
  t.outcome = Outcome::kOk;
  return true;
}

/// Check an ok reply against the reference answer; a mismatch turns the
/// outcome into kWrong. True when the request succeeded with the right
/// answer.
bool check(const Item& item, Timing& t) {
  if (t.outcome != Outcome::kOk) return false;
  if (ref::check_reply(t.resp.result, *item.expected, t.why)) return true;
  t.outcome = Outcome::kWrong;
  t.why = item.req.algo + " on " + item.req.graph + ": " + t.why;
  return false;
}

/// The server-side halves of the codec (parse the request, render the
/// response) replayed on one request's payloads, µs.
double codec_us(const Item& item, const Timing& t) {
  namespace sv = pygb::serve;
  const std::string payload = sv::render_request(item.req);
  const auto t0 = Clock::now();
  Request back;
  std::string err;
  sv::parse_request(payload, back, err);
  const std::string rendered = t.resp.render();
  const double us = ms_since(t0) * 1e3;
  (void)rendered;
  return us;
}

}  // namespace

std::string serve_input_bytes(std::uint64_t seed) {
  Stream stream(seed);
  constexpr std::size_t kShown = 256;
  stream.ensure(kShown);
  std::string out;
  for (std::size_t k = 0; k < kShown; ++k) {
    out += pygb::serve::render_request(stream[k].req);
    for (const auto& [key, v] : *stream[k].expected) {
      out += key + "=" + std::to_string(v) + "\n";
    }
  }
  return out;
}

void run_serve_mixed(const Options& opts, Tracer& tr, Report& r) {
  const auto setup_start = Clock::now();
  probe_compiler(tr, r);
  pygb::serve::ServerConfig cfg = pygb::serve::ServerConfig::from_env();
  cfg.target = "unix:" + opts.scratch_dir + "/serve.sock";
  auto server = std::make_unique<pygb::serve::Server>(cfg);
  std::string err;
  if (!server->start(err)) throw std::runtime_error("server start: " + err);
  const std::string target = server->endpoint();
  std::thread server_thread([&] { server->run(); });
  struct Stop {  // drain and join on every exit path
    std::unique_ptr<pygb::serve::Server>& s;
    std::thread& t;
    ~Stop() {
      s->request_shutdown();
      t.join();
    }
  } stop{server, server_thread};

  const long nproc = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  r.config.push_back({"server_threads", std::to_string(cfg.threads)});
  r.config.push_back({"max_inflight", std::to_string(nproc)});
  r.config.push_back({"rate_per_s", std::to_string(kRate)});
  r.config.push_back({"latency_limit_ms", std::to_string(kLimitMs)});

  // First calls: every algorithm on every hot spec and on one cold spec,
  // which builds the hot graphs and loads the modules from disk.
  for (const char* algo : {"bfs", "sssp", "pagerank", "cc"}) {
    for (const std::string& spec :
         {std::string(kHot[0]), std::string(kHot[1]), std::string(kHot[2]),
          cold_spec(kColdSpecs - 1)}) {
      Item warm;
      warm.req.algo = algo;
      warm.req.graph = spec;
      Timing t;
      if (!round_trip(target, warm, false, tr, t)) {
        throw std::runtime_error("warm-up request failed: " + t.why);
      }
    }
  }
  r.setup_s = ms_since(setup_start) / 1e3;
  if (opts.setup_only) return;

  // An untraced run spends kOpenShare of its time in the open loop and the
  // rest in the closed loop; a traced run splits it between the open loop
  // and the sweep.
  const double phase_s = opts.seconds * (opts.trace ? 0.5 : kOpenShare);
  const std::size_t phase_n = static_cast<std::size_t>(kRate * phase_s);
  // The request stream, with its reference answers, before any timing.
  Stream stream(opts.seed);
  stream.ensure(phase_n + kClosedPool);

  // Wrong answers fail the run wherever they occur; the first few
  // transport failures are reported too.
  auto tally = [&](std::size_t k, const Timing& t) {
    const std::string at = "request " + std::to_string(k) + ": ";
    if (t.outcome == Outcome::kWrong) {
      r.fail(at + t.why);
    } else if (t.outcome == Outcome::kTransport && r.errors.size() < 5) {
      r.errors.push_back(at + t.why);
    }
  };
  // Run requests [base, base + rate * seconds) open-loop, then check their
  // replies. A traced run traces every other pass through the rotation, so
  // traced and untraced requests have the same class mix.
  auto traced_at = [&](std::size_t k) {
    return opts.trace && (k / kRotationLen) % 2 == 1;
  };
  auto drive = [&](double rate, double seconds, std::size_t base,
                   std::vector<Timing>& timing) {
    const std::size_t n =
        static_cast<std::size_t>(std::max(1.0, rate * seconds));
    stream.ensure(base + n);
    timing.assign(n, Timing{});
    OpenLoopResult res = run_open_loop(
        rate, seconds, static_cast<unsigned>(nproc),
        [&](std::size_t k) {
          Tracer::set_group(k);
          return round_trip(target, stream[k], traced_at(k), tr,
                            timing[k - base]);
        },
        base);
    for (std::size_t i = 0; i < n; ++i) {
      res.ok[i] = check(stream[base + i], timing[i]);
      tally(base + i, timing[i]);
    }
    return res;
  };

  using pygb::obs::Counter;
  using pygb::obs::counter_value;
  const std::uint64_t admitted0 = counter_value(Counter::kServeAdmitted);
  const std::uint64_t rejected0 = counter_value(Counter::kServeRejected);
  const pygb::jit::RegistryStats reg0 = pygb::jit::Registry::instance().stats();
  tr.set_enabled(opts.trace);
  std::vector<Timing> timing;
  const OpenLoopResult main = drive(kRate, phase_s, 0, timing);
  tr.set_enabled(false);
  std::map<std::string, std::vector<double>> by_class;
  for (std::size_t k = 0; k < main.ok.size(); ++k) {
    ++r.attempted;
    if (!main.ok[k]) ++r.failed;
    r.samples_ms.push_back(main.latency_ms[k]);
    if (opts.trace) {
      (traced_at(k) ? r.traced_ms : r.untraced_ms)
          .push_back(main.latency_ms[k]);
    }
    const Slot& slot = kRotation[k % kRotationLen];
    by_class[std::string(slot.algo) + (slot.hot < 0 ? "/cold" : "/hot")]
        .push_back(main.latency_ms[k]);
  }
  for (const auto& [klass, v] : by_class) {
    r.config.push_back({"p50_ms " + klass, std::to_string(median(v))});
  }

  if (!opts.trace) {
    // Throughput: one client back to back over the next kClosedPool
    // requests of the stream, cycled (the pool is a whole number of
    // rotations, so the class mix is the open loop's). Replies are kept
    // and checked after the phase.
    auto item = [&](std::size_t k) -> const Item& {
      return stream[phase_n + k % kClosedPool];
    };
    std::deque<Timing> replies;
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     opts.seconds * (1 - kOpenShare)));
    while (Clock::now() < end) {
      const Item& next = item(replies.size());
      round_trip(target, next, false, tr, replies.emplace_back());
    }
    r.phase_s = ms_since(start) / 1e3;
    r.rate_window_ms = kServeRateWindowMs;
    for (std::size_t k = 0; k < replies.size(); ++k) {
      ++r.attempted;
      const bool ok = check(item(k), replies[k]);
      if (ok) {
        ++r.completed;
      } else {
        ++r.failed;
      }
      r.rate_ms.push_back(replies[k].round_trip_ms);
      r.rate_ok.push_back(ok);
      tally(phase_n + k, replies[k]);
    }
    r.config.push_back(
        {"closed_loop_requests", std::to_string(replies.size())});
  }
  const pygb::jit::RegistryStats reg1 = pygb::jit::Registry::instance().stats();
  r.layer["serve.admitted"] =
      static_cast<double>(counter_value(Counter::kServeAdmitted) - admitted0);
  r.layer["serve.rejected"] =
      static_cast<double>(counter_value(Counter::kServeRejected) - rejected0);
  r.layer["loadgen.late_ms"] = mean(main.late_ms);
  r.layer["jit.compiles"] = static_cast<double>(reg1.compiles - reg0.compiles);
  const double lookups = static_cast<double>(reg1.lookups - reg0.lookups);
  if (lookups > 0) {
    r.layer["jit.hit_ratio"] =
        static_cast<double>(reg1.static_hits - reg0.static_hits +
                            reg1.memory_hits - reg0.memory_hits) /
        lookups;
  }

  if (!opts.trace) return;
  // Stepped-rate sweep: raise the rate until the tail misses the limit or
  // a request fails, then interpolate the crossing between the last
  // passing step and the failing one. Sweep requests continue the stream.
  double rate = kSweepStart, pass_rate = 0, pass_tail = 0, max_rate = 0;
  std::size_t next = phase_n;
  const auto sweep_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds / 2));
  for (;;) {
    const double step_s = static_cast<double>(kStepN) / rate;
    std::vector<Timing> st;
    const OpenLoopResult res = drive(rate, step_s, next, st);
    next += res.ok.size();
    const double tail = tail_of(res.latency_ms).value;
    const bool failed = std::count(res.ok.begin(), res.ok.end(), false) > 0;
    if (tail > kLimitMs || failed) {
      max_rate =
          pass_rate == 0
              ? rate * kLimitMs / std::max(kLimitMs, tail)
              : pass_rate + (rate - pass_rate) *
                                (kLimitMs - pass_tail) /
                                std::max(1e-9, tail - pass_tail);
      break;
    }
    pass_rate = rate;
    pass_tail = tail;
    if (Clock::now() >= sweep_deadline) {
      max_rate = pass_rate;  // never saturated within the budget
      break;
    }
    rate *= kSweepStep;
  }
  r.layer["serve.max_rate_per_s"] = max_rate;
  // Per-layer replay: serve::execute called directly, with a private graph
  // cache, on the first requests of the same stream.
  tr.set_enabled(true);
  pygb::serve::GraphCache cache(cfg.session);
  std::vector<std::string> lru;  // mirror of the cache's LRU order
  std::vector<double> connect, rtt;
  const std::size_t replay = std::min<std::size_t>(phase_n, 400);
  for (std::size_t k = 0; k < replay; ++k) {
    const Item& item = stream[k];
    Tracer::set_group(phase_n + next + k);
    const auto hit = std::find(lru.begin(), lru.end(), item.req.graph);
    const bool is_hit = hit != lru.end();
    if (is_hit) lru.erase(hit);
    lru.insert(lru.begin(), item.req.graph);
    if (lru.size() > cfg.session.graph_cache_cap) lru.pop_back();
    if (!is_hit) {
      Span s(tr, "generators.build");
      spec_edges(item.req.graph);
    }
    {
      Span s(tr, is_hit ? "serve.graph_hit" : "serve.graph_miss");
      cache.get(item.req.graph);
    }
    Response resp;
    {
      Span s(tr, "serve.execute");
      resp = pygb::serve::execute(item.req, cache, k);
    }
    std::string why;
    if (!resp.ok() || !ref::check_reply(resp.result, *item.expected, why)) {
      r.fail("direct execute of request " + std::to_string(k) + ": " +
             resp.error + why);
    }
    connect.push_back(timing[k].connect_ms);
    rtt.push_back(timing[k].round_trip_ms);
  }
  const double exec = tr.mean_ms("serve.execute");
  r.layer["serve.execute_ms"] = exec;
  r.layer["serve.connect_ms"] = mean(connect);
  r.layer["serve.wait_ms"] = mean(rtt) - mean(connect) - exec;
  r.layer["serve.graph_hit_ms"] = tr.mean_ms("serve.graph_hit");
  r.layer["serve.graph_miss_ms"] = tr.mean_ms("serve.graph_miss");
  r.layer["serve.graph_misses"] =
      static_cast<double>(tr.count("serve.graph_miss"));
  r.layer["generators.build_ms"] = tr.mean_ms("generators.build");
  std::vector<double> proto;
  for (std::size_t k = 0; k < timing.size(); ++k) {
    if (traced_at(k) && timing[k].outcome == Outcome::kOk) {
      proto.push_back(codec_us(stream[k], timing[k]));
    }
  }
  r.layer["serve.protocol_us"] = mean(proto);
}

}  // namespace perfbench
