// Tests of the benchmark's own parts: the tail rule, the throughput
// stretch, open-loop timing against a stalling fake server, merging the
// samples of several processes, the reference checker catching corrupted
// results, and seed-determinism of the generated inputs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "harness.hpp"
#include "loadgen.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t k = 1; k <= n; ++k) v.push_back(static_cast<double>(k));
  return v;
}

TEST(TailRule, LeavesTenSamplesBeyondThePercentile) {
  const Tail t = tail_of(ramp(200));
  EXPECT_EQ(t.samples, 200u);
  EXPECT_DOUBLE_EQ(t.value, 190.0);  // 10 samples (191..200) lie beyond
  EXPECT_DOUBLE_EQ(t.percentile, 95.0);

  const Tail t1000 = tail_of(ramp(1000));
  EXPECT_DOUBLE_EQ(t1000.value, 990.0);
  EXPECT_DOUBLE_EQ(t1000.percentile, 99.0);

  const Tail t37 = tail_of(ramp(37));
  EXPECT_DOUBLE_EQ(t37.value, 27.0);
  EXPECT_DOUBLE_EQ(t37.percentile, 72.9);  // 27/37, floored to 0.1
}

TEST(TailRule, FewerThanTwentySamplesReportTheMaximum) {
  const Tail t = tail_of(ramp(12));
  EXPECT_EQ(t.samples, 12u);
  EXPECT_DOUBLE_EQ(t.value, 12.0);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0);
  EXPECT_NE(t.value, median(ramp(12)));
}

TEST(TailRule, PrintsPercentileAndSampleCount) {
  Options opts;
  opts.workload = "unit";
  Report r;
  r.samples_ms = ramp(50);
  r.attempted = 50;
  r.completed = 50;
  r.phase_s = 1.0;
  testing::internal::CaptureStdout();
  print_result(opts, r);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("tail_ms is p80.0 of 50 samples"), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"tail_ms\": 40,"), std::string::npos) << out;
}

TEST(TailRule, AppliesToTheMergedSamplesOfSeveralProcesses) {
  // Two processes of 30 samples each (odd and even values): merged, the
  // counts add up and the tail is rank 50 of 60, 10 samples beyond it.
  const std::string dir = ::testing::TempDir();
  Options opts;
  opts.workload = "unit";
  opts.seed = 7;
  Report a, b;
  for (int k = 1; k <= 30; ++k) {
    a.samples_ms.push_back(2.0 * k - 1);  // odd values 1..59
    b.samples_ms.push_back(2.0 * k);      // even values 2..60
  }
  a.attempted = b.attempted = 30;
  a.completed = 30;
  b.completed = 29;
  b.failed = b.wrong = 1;
  a.phase_s = b.phase_s = 0.5;
  a.rate_window_ms = b.rate_window_ms = 1000;
  a.rate_ms = {100, 200};
  a.rate_ok = {1, 1};
  b.rate_ms = {300};
  b.rate_ok = {0};
  a.peak_rss_mb = 10;
  b.peak_rss_mb = 12.5;
  ASSERT_TRUE(write_raw(opts, a, dir + "/a.raw"));
  ASSERT_TRUE(write_raw(opts, b, dir + "/b.raw"));
  Options merged_opts;
  Report m;
  ASSERT_TRUE(merge_raw(dir + "/a.raw", merged_opts, m));
  ASSERT_TRUE(merge_raw(dir + "/b.raw", merged_opts, m));
  EXPECT_EQ(merged_opts.workload, "unit");
  EXPECT_EQ(merged_opts.seed, 7u);
  EXPECT_EQ(m.attempted, 60u);
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.wrong, 1u);
  EXPECT_EQ(m.completed, 59u);
  EXPECT_DOUBLE_EQ(m.phase_s, 1.0);
  EXPECT_DOUBLE_EQ(m.peak_rss_mb, 12.5);
  ASSERT_EQ(m.samples_ms.size(), 60u);
  EXPECT_DOUBLE_EQ(tail_of(m.samples_ms).value, 50.0);
  EXPECT_EQ(m.rate_ms, (std::vector<double>{100, 200, 300}));
  EXPECT_EQ(m.rate_ok, (std::vector<char>{1, 1, 0}));
  EXPECT_DOUBLE_EQ(m.rate_window_ms, 1000.0);
  EXPECT_FALSE(merge_raw(dir + "/missing.raw", merged_opts, m));
}

TEST(Throughput, IsTheFastestStretchOfAtLeastTheWindow) {
  // 100 ms samples, then 50 ms ones, then 100 ms again: the fastest
  // stretch of >= 1 s is 20 of the 50 ms samples, 20 per second; the
  // whole phase runs at 40 samples / 3 s.
  std::vector<double> ms(10, 100.0);
  ms.insert(ms.end(), 20, 50.0);
  ms.insert(ms.end(), 10, 100.0);
  const std::vector<char> ok(ms.size(), 1);
  EXPECT_DOUBLE_EQ(best_rate(ms, ok, 1000.0), 20.0);
  EXPECT_DOUBLE_EQ(best_rate(ms, ok, 3000.0), 40.0 / 3.0);
}

TEST(Throughput, CountsOnlyCorrectSamples) {
  const std::vector<double> ms(20, 100.0);
  std::vector<char> ok(20, 1);
  EXPECT_DOUBLE_EQ(best_rate(ms, ok, 1000.0), 10.0);
  for (std::size_t k = 0; k < ok.size(); k += 2) ok[k] = 0;
  EXPECT_DOUBLE_EQ(best_rate(ms, ok, 1000.0), 5.0);
  EXPECT_DOUBLE_EQ(best_rate(ms, std::vector<char>(20, 0), 1000.0), 0.0);
}

TEST(Throughput, WindowZeroIsTheFastestCorrectSample) {
  // The job workloads' rule: 25 ms is the fastest sample, but it failed.
  EXPECT_DOUBLE_EQ(best_rate({50, 40, 25, 60}, {1, 1, 0, 1}, 0.0), 25.0);
  EXPECT_DOUBLE_EQ(best_rate({50, 40, 25, 60}, {0, 0, 0, 0}, 0.0), 0.0);
}

TEST(Throughput, APhaseShorterThanTheWindowIsOneStretch) {
  // jit-cold style: a few samples longer than the window each.
  EXPECT_DOUBLE_EQ(best_rate({2000, 1600, 2500}, {1, 1, 1}, 1000.0),
                   1e3 / 1600);
  EXPECT_DOUBLE_EQ(best_rate({200, 300}, {1, 1}, 1000.0), 4.0);
  EXPECT_DOUBLE_EQ(best_rate({}, {}, 1000.0), 0.0);
}

TEST(Throughput, PrintedAsTheBestStretchBesideTheWholePhaseRate) {
  Options opts;
  opts.workload = "unit";
  Report r;
  r.samples_ms = r.rate_ms = {100, 100, 100, 100, 100, 100, 100, 100, 100,
                              100, 400, 400, 400, 400, 400};
  r.rate_ok.assign(r.rate_ms.size(), 1);
  r.rate_window_ms = 1000;
  r.attempted = r.completed = 15;
  r.phase_s = 3.0;
  testing::internal::CaptureStdout();
  print_result(opts, r);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("\"throughput_per_s\": 10,"), std::string::npos) << out;
  EXPECT_NE(out.find("whole-phase rate 5/s"), std::string::npos) << out;
}

TEST(OpenLoop, TimesFromDueAndReportsLatenessBehindAStall) {
  // A fake server that answers in 1 ms, except request 5 which stalls for
  // 200 ms. With one connection in flight, the requests due during the
  // stall start late, and their latency counts the wait.
  auto send = [](std::size_t k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(k == 5 ? 200 : 1));
    return true;
  };
  const OpenLoopResult res = run_open_loop(100.0, 0.3, 1, send);
  ASSERT_EQ(res.latency_ms.size(), 30u);
  EXPECT_LT(res.late_ms[2], 5.0);
  EXPECT_LT(res.latency_ms[2], 10.0);
  EXPECT_GT(res.latency_ms[5], 195.0);
  // Request 6 was due 10 ms after request 5 started its 200 ms stall.
  EXPECT_GT(res.late_ms[6], 180.0);
  EXPECT_GT(res.latency_ms[6], 180.0);
  double late_sum = 0;
  for (double l : res.late_ms) late_sum += l;
  EXPECT_GT(late_sum / 30, 20.0);  // loadgen.late_ms shows the invalid phase
  EXPECT_LT(res.late_ms[29], 50.0);  // the backlog drained again
}

TEST(OpenLoop, KeepsScheduleWhenTheServerKeepsUp) {
  std::atomic<int> calls{0};
  auto send = [&](std::size_t) {
    ++calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return true;
  };
  const OpenLoopResult res = run_open_loop(200.0, 0.25, 4, send);
  EXPECT_EQ(calls.load(), 50);
  for (double l : res.late_ms) EXPECT_LT(l, 15.0);
  EXPECT_GT(res.wall_s, 0.24);
}

ref::Graph triangle_with_tail() {
  // 0-1-2 triangle plus 2-3, symmetric, unit weights; vertex 4 isolated.
  std::vector<ref::Arc> arcs;
  for (auto [u, v] : {std::pair{0, 1}, {1, 2}, {0, 2}, {2, 3}}) {
    arcs.push_back({static_cast<std::uint64_t>(u),
                    static_cast<std::uint64_t>(v), 1.0});
    arcs.push_back({static_cast<std::uint64_t>(v),
                    static_cast<std::uint64_t>(u), 1.0});
  }
  return ref::make_graph(5, arcs);
}

TEST(Reference, KnownAnswers) {
  const ref::Graph g = triangle_with_tail();
  std::uint64_t depth = 0;
  const ref::SparseVec lv = ref::bfs_levels(g, 0, &depth);
  EXPECT_EQ(depth, 3u);
  EXPECT_EQ(lv.nvals(), 4u);
  EXPECT_EQ(lv.val[3], 3.0);
  EXPECT_EQ(ref::triangles(g), 1u);
  const ref::SparseVec cc = ref::component_labels(g);
  EXPECT_EQ(cc.val[3], 0.0);
  EXPECT_EQ(cc.val[4], 4.0);
  EXPECT_EQ(ref::propagation_rounds(g), 3u);  // two changing, one final
  const ref::SparseVec pr = ref::pagerank(g, 0.85, 1e-12, 1000);
  EXPECT_NEAR(pr.val[4], 0.15 / 5, 1e-15);  // never ranked: teleport only
  EXPECT_GT(pr.val[2], pr.val[3]);
}

TEST(Reference, CorruptedResultIsCaughtAndCounted) {
  const ref::Graph g = triangle_with_tail();
  const ref::SparseVec want = ref::shortest_paths(g, 0);
  std::string why;
  ASSERT_TRUE(ref::same_sparse(want, want, 0, 0, why));

  ref::SparseVec bad = want;
  bad.val[3] += 1e-3;
  Report r;
  for (const ref::SparseVec* got : {&want, static_cast<const ref::SparseVec*>(&bad)}) {
    ++r.attempted;
    if (!ref::same_sparse(*got, want, 1e-9, 0, why)) {
      ++r.failed;
      r.fail(why);
    }
  }
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.wrong, 1u);
  EXPECT_NE(r.errors.at(0).find("entry 3"), std::string::npos);

  ref::SparseVec missing = want;
  missing.present[1] = false;
  EXPECT_FALSE(ref::same_sparse(missing, want, 1, 1, why));
}

TEST(Reference, CorruptedServeReplyIsCaught) {
  const std::map<std::string, double> want = {{"depth", 3}, {"sum", 1.0}};
  std::string why;
  EXPECT_TRUE(ref::check_reply("nrows=5\ndepth=3\nsum=1.000000\n", want, why));
  EXPECT_FALSE(ref::check_reply("nrows=5\ndepth=4\nsum=1.000000\n", want, why));
  EXPECT_FALSE(ref::check_reply("nrows=5\ndepth=3\nsum=1.100000\n", want, why));
  EXPECT_FALSE(ref::check_reply("nrows=5\ndepth=3\n", want, why));
}

TEST(Reference, EdgeModelTracksInsertsAndDeletes) {
  ref::EdgeModel m;
  m.insert(0, 1, 2.0);
  m.insert(0, 2, 3.0);
  m.insert(0, 1, 4.0);  // overwrite
  m.erase(0, 2);
  m.insert(2, 0, 1.0);
  const ref::SparseVec s = m.row_sums(3);
  EXPECT_EQ(s.val[0], 4.0);
  EXPECT_FALSE(s.present[1]);
  EXPECT_EQ(s.val[2], 1.0);
  EXPECT_EQ(m.size(), 2u);
}

TEST(Inputs, SameSeedSameBytesOtherSeedOtherBytes) {
  for (const char* w :
       {"dsl-small", "dsl-large", "ingest", "jit-cold", "serve-mixed"}) {
    const std::string a = input_bytes(w, 7);
    EXPECT_FALSE(a.empty()) << w;
    EXPECT_EQ(a, input_bytes(w, 7)) << w;
    EXPECT_NE(a, input_bytes(w, 8)) << w;
  }
}

}  // namespace
}  // namespace perfbench
