// Tests: the persistent worker pool behind parallel_for_rows
// (gbtl/detail/pool.{hpp,cpp}) — lifecycle (lazy start, resize visibility,
// clean shutdown), exception propagation, nested calls degrading to
// inline, the injected PoolApi table, and bit-identical results for the
// parallel eWise/apply/reduce kernels across worker counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <system_error>
#include <thread>
#include <vector>

#include "gbtl/detail/parallel.hpp"
#include "gbtl/detail/pool.hpp"
#include "gbtl/gbtl.hpp"
#include "reference.hpp"

namespace {

using namespace gbtl;  // NOLINT
using testref::random_matrix;
using testref::random_vector;

/// RAII worker-count override.
class ThreadGuard {
 public:
  explicit ThreadGuard(unsigned n) : saved_(detail::num_threads()) {
    detail::set_num_threads(n);
  }
  ~ThreadGuard() { detail::set_num_threads(saved_); }

 private:
  unsigned saved_;
};

/// OS thread count of this process, or -1 when /proc is unreadable.
int task_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  int n = 0;
  for (const auto& entry : it) {
    (void)entry;
    ++n;
  }
  return n;
}

/// A sanitizer runtime (TSan) starts its own background thread on the first
/// pthread_create; spawn and join one thread so that it is already running,
/// and counted in the base, before a test measures.
void start_runtime_threads() { std::thread([] {}).join(); }

/// Run one pool operation and assert every index was visited exactly once.
void run_coverage_op(IndexType n) {
  std::vector<std::atomic<int>> hits(n);
  detail::parallel_for_rows(n, [&](IndexType begin, IndexType end) {
    for (IndexType i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(PoolLifecycle, StartsLazilyAndJoinsOnShutdown) {
  detail::set_num_threads(1);  // drain any pool a prior test started
  start_runtime_threads();
  const int base = task_count();
  if (base < 0) GTEST_SKIP() << "/proc/self/task unreadable";

  detail::set_num_threads(4);
  EXPECT_EQ(task_count(), base);  // lazy: no workers until first operation

  run_coverage_op(1000);
  EXPECT_EQ(task_count(), base + 3);  // caller + 3 parked workers

  run_coverage_op(1000);
  EXPECT_EQ(task_count(), base + 3);  // reused, not respawned

  detail::set_num_threads(1);
  EXPECT_EQ(task_count(), base);  // shrink drains and joins the complement
}

TEST(PoolLifecycle, ResizeIsVisibleToTheNextOperation) {
  detail::set_num_threads(1);
  start_runtime_threads();
  const int base = task_count();
  if (base < 0) GTEST_SKIP() << "/proc/self/task unreadable";

  detail::set_num_threads(4);
  run_coverage_op(1000);
  EXPECT_EQ(task_count(), base + 3);

  // Regression (set_num_threads used to be invisible to running machinery):
  // the old complement must be joined and the new size must take effect on
  // the very next parallel operation.
  detail::set_num_threads(2);
  EXPECT_EQ(task_count(), base);
  run_coverage_op(1000);
  EXPECT_EQ(task_count(), base + 1);

  detail::set_num_threads(1);
  EXPECT_EQ(task_count(), base);
}

TEST(PoolLifecycle, ConcurrentResizeWhileOperationsRun) {
  // Flip the worker count from another host thread while this thread keeps
  // submitting operations: resizes serialize behind in-flight operations,
  // every operation still covers its range exactly once, and nothing
  // deadlocks or crashes.
  ThreadGuard guard(4);
  std::atomic<bool> done{false};
  std::thread flipper([&] {
    unsigned n = 2;
    while (!done.load()) {
      detail::set_num_threads(n);
      n = n == 5 ? 2 : n + 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int round = 0; round < 50; ++round) {
    run_coverage_op(2000);
  }
  done.store(true);
  flipper.join();
}

TEST(PoolExceptions, PropagateAndLeaveThePoolUsable) {
  ThreadGuard guard(4);
  EXPECT_THROW(
      detail::parallel_for_rows(1000,
                                [&](IndexType begin, IndexType) {
                                  if (begin > 0) {
                                    throw std::runtime_error("worker boom");
                                  }
                                }),
      std::runtime_error);
  // The failed operation drained fully: the next one runs normally.
  run_coverage_op(1000);
}

TEST(PoolNesting, NestedParallelForRunsInline) {
  ThreadGuard guard(4);
  std::vector<std::atomic<int>> inner_hits(1000);
  std::atomic<int> outer_calls{0};
  std::atomic<bool> escaped{false};
  detail::parallel_for_rows(1000, [&](IndexType, IndexType) {
    outer_calls.fetch_add(1);
    const auto outer_thread = std::this_thread::get_id();
    detail::parallel_for_rows(1000, [&](IndexType begin, IndexType end) {
      if (std::this_thread::get_id() != outer_thread) escaped.store(true);
      for (IndexType i = begin; i < end; ++i) inner_hits[i].fetch_add(1);
    });
  });
  // 4 participants, 1000 rows: one outer block each, and
  // each block ran the full inner range inline on its own thread.
  EXPECT_EQ(outer_calls.load(), 4);
  EXPECT_FALSE(escaped.load());
  for (const auto& h : inner_hits) EXPECT_EQ(h.load(), outer_calls.load());
}

TEST(PoolApiTable, HostTableDispatchesOntoThePool) {
  // The same path a JIT module takes after pygb_module_set_pool injection:
  // plain C function pointers, no templates.
  const detail::PoolApi* api = detail::host_pool_api();
  ASSERT_NE(api, nullptr);
  EXPECT_EQ(api->abi_version, detail::kPoolAbiVersion);

  ThreadGuard guard(4);
  EXPECT_EQ(api->num_threads(), 4u);

  std::vector<std::atomic<int>> hits(1000);
  api->parallel_for(
      1000,
      [](void* ctx, IndexType begin, IndexType end) {
        auto* h = static_cast<std::vector<std::atomic<int>>*>(ctx);
        for (IndexType i = begin; i < end; ++i) (*h)[i].fetch_add(1);
      },
      &hits);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  api->set_num_threads(2);
  EXPECT_EQ(detail::num_threads(), 2u);
}

// --- The newly parallel kernels: bit-identical across worker counts. ---

class PoolKernels : public ::testing::TestWithParam<unsigned> {};

TEST_P(PoolKernels, EWiseAddMatrixMatchesSequential) {
  auto a = random_matrix<double>(400, 300, 0.05, 41);
  auto b = random_matrix<double>(400, 300, 0.05, 42);
  Matrix<double> seq(400, 300);
  eWiseAdd(seq, NoMask{}, NoAccumulate{}, Plus<double>{}, a, b);

  ThreadGuard guard(GetParam());
  Matrix<double> par(400, 300);
  eWiseAdd(par, NoMask{}, NoAccumulate{}, Plus<double>{}, a, b);
  EXPECT_EQ(seq, par);
}

TEST_P(PoolKernels, EWiseMultVectorMatchesSequential) {
  auto u = random_vector<double>(5000, 0.4, 43);
  auto v = random_vector<double>(5000, 0.4, 44);
  Vector<double> seq(5000);
  eWiseMult(seq, NoMask{}, NoAccumulate{}, Times<double>{}, u, v);

  ThreadGuard guard(GetParam());
  Vector<double> par(5000);
  eWiseMult(par, NoMask{}, NoAccumulate{}, Times<double>{}, u, v);
  EXPECT_TRUE(seq == par);
}

TEST_P(PoolKernels, ApplyMatrixMatchesSequential) {
  auto a = random_matrix<double>(400, 300, 0.05, 45);
  Matrix<double> seq(400, 300);
  apply(seq, NoMask{}, NoAccumulate{},
        BinaryOpBind2nd<double, Times<double>>(0.5), a);

  ThreadGuard guard(GetParam());
  Matrix<double> par(400, 300);
  apply(par, NoMask{}, NoAccumulate{},
        BinaryOpBind2nd<double, Times<double>>(0.5), a);
  EXPECT_EQ(seq, par);
}

TEST_P(PoolKernels, ReduceMatrixToVectorMatchesSequential) {
  auto a = random_matrix<double>(500, 400, 0.05, 46);
  Vector<double> seq(500);
  reduce(seq, NoMask{}, NoAccumulate{}, PlusMonoid<double>{}, a);

  ThreadGuard guard(GetParam());
  Vector<double> par(500);
  reduce(par, NoMask{}, NoAccumulate{}, PlusMonoid<double>{}, a);
  EXPECT_TRUE(seq == par);
}

TEST_P(PoolKernels, ReduceMatrixToScalarBitExact) {
  auto a = random_matrix<double>(500, 400, 0.05, 47);
  double seq = 0.0;
  reduce(seq, NoAccumulate{}, PlusMonoid<double>{}, a);

  ThreadGuard guard(GetParam());
  double par = 0.0;
  reduce(par, NoAccumulate{}, PlusMonoid<double>{}, a);
  EXPECT_EQ(seq, par);  // bit-exact: grouping fixed by matrix structure
}

TEST_P(PoolKernels, ReduceVectorToScalarBitExact) {
  auto u = random_vector<double>(200000, 0.3, 48);
  double seq = 0.0;
  reduce(seq, NoAccumulate{}, PlusMonoid<double>{}, u);

  ThreadGuard guard(GetParam());
  double par = 0.0;
  reduce(par, NoAccumulate{}, PlusMonoid<double>{}, u);
  EXPECT_EQ(seq, par);  // bit-exact: grouping fixed by tile width
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, PoolKernels,
                         ::testing::Values(2u, 4u, 8u));

}  // namespace
