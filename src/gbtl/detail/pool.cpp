// gbtl/detail/pool.cpp — persistent worker-pool implementation (see
// pool.hpp for the design contract).
//
// Concurrency protocol:
//
//   * submit_mu_ serializes whole operations. The submitting thread holds
//     it from publication until every worker has acknowledged the job, so
//     a Job can live on the submitter's stack. Other host threads that
//     fail the try_lock run their operation inline instead of queueing —
//     the machine is already saturated.
//   * job_mu_ + job_cv_ park idle workers; jobs are published by bumping
//     job_seq_ under job_mu_. done_cv_ signals the submitter when the last
//     worker acknowledges (remaining_ reaching zero).
//   * t_in_pool_task marks threads currently executing pool work (workers
//     for their lifetime, the submitter while it participates); nested
//     parallel_for calls from such threads run inline rather than
//     deadlocking on submit_mu_ or oversubscribing the machine.
//
// Exception discipline: the first exception thrown by any participant is
// captured (has_error claims the slot, error publishes under job_mu_ via
// the acknowledgement) and rethrown on the submitting thread after the
// operation drains; remaining participants stop claiming work.
#include "gbtl/detail/pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "pygb/faultinj.hpp"
#include "pygb/governor.hpp"
#include "pygb/obs/flightrec.hpp"

namespace gbtl::detail {

namespace {

thread_local bool t_in_pool_task = false;

unsigned env_thread_count() {
  const char* v = std::getenv("GBTL_NUM_THREADS");
  const long parsed = (v != nullptr && *v != '\0') ? std::atol(v) : 1;
  return static_cast<unsigned>(parsed < 1 ? 1 : parsed);
}

/// One parallel_for in flight. Lives on the submitter's stack; workers
/// only touch it between publication and their acknowledgement.
struct Job {
  PoolTaskFn fn = nullptr;
  void* ctx = nullptr;
  IndexType n = 0;
  IndexType chunk = 0;        ///< rows per participant's block
  unsigned participants = 0;  ///< submitter + workers doing real work
  /// The submitter's bound governor context (nullptr = default): workers
  /// re-bind it for the job's duration so checkpoints and memory charges
  /// inside kernels route to the submitting tenant, not the process-wide
  /// scope (per-request isolation, docs/SERVING.md).
  pygb::governor::RequestContext* gov_ctx = nullptr;
  std::atomic<bool> has_error{false};
  std::exception_ptr error;  ///< written by the has_error winner only
};

class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  unsigned count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  void set_count(unsigned n) {
    n = n < 1 ? 1 : n;
    // Blocks until any in-flight operation drains, so a resize is never
    // concurrent with running tasks.
    std::lock_guard submit(submit_mu_);
    if (n == count_.load(std::memory_order_relaxed) && workers_running()) {
      return;
    }
    stop_workers();
    count_.store(n, std::memory_order_relaxed);
    pygb::flightrec::record(pygb::flightrec::EventKind::kPool, "resize", n);
    // The new complement starts lazily on the next parallel operation.
  }

  void parallel_for(IndexType n, PoolTaskFn fn, void* ctx) {
    if (n == 0) return;
    // Chaos hook: a submit that throws must propagate to the caller
    // without wedging the pool (or any registry in-flight record above
    // it). Thrown before publication, like a real resource failure would.
    if (pygb::faultinj::check(pygb::faultinj::site::kPoolSubmit)) {
      throw std::runtime_error("gbtl: fault injected at pool_submit");
    }
    const unsigned requested = count();
    unsigned workers = requested;
    if (workers > 1 && n / workers < kMinRowsPerThread) {
      const IndexType fit = n / kMinRowsPerThread;
      workers = static_cast<unsigned>(fit > 0 ? fit : 1);
    }
    if (workers <= 1 || t_in_pool_task) {
      fn(ctx, IndexType{0}, n);
      return;
    }

    std::unique_lock submit(submit_mu_, std::try_to_lock);
    if (!submit.owns_lock()) {
      // Another host thread owns the pool; don't queue behind it.
      fn(ctx, IndexType{0}, n);
      return;
    }
    ensure_started();
    if (threads_.empty()) {  // thread creation failed: degrade gracefully
      fn(ctx, IndexType{0}, n);
      return;
    }

    Job job;
    job.fn = fn;
    job.ctx = ctx;
    job.n = n;
    job.gov_ctx = pygb::governor::bound_context();
    job.participants = std::min<unsigned>(
        workers, static_cast<unsigned>(threads_.size()) + 1);
    job.chunk = (job.n + job.participants - 1) / job.participants;

    {
      std::lock_guard publish(job_mu_);
      current_ = &job;
      remaining_ = static_cast<unsigned>(threads_.size());
      ++job_seq_;
    }
    job_cv_.notify_all();

    t_in_pool_task = true;
    run_participant(job, 0);
    t_in_pool_task = false;

    {
      std::unique_lock wait(job_mu_);
      done_cv_.wait(wait, [&] { return remaining_ == 0; });
      current_ = nullptr;
    }
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  WorkerPool() : count_(env_thread_count()) {}

  ~WorkerPool() {
    std::lock_guard submit(submit_mu_);
    stop_workers();
  }

  bool workers_running() const { return !threads_.empty(); }

  /// Spawn the worker complement if it isn't running (submit_mu_ held).
  void ensure_started() {
    if (!threads_.empty()) return;
    const unsigned n = count_.load(std::memory_order_relaxed);
    if (n <= 1) return;
    threads_.reserve(n - 1);
    try {
      for (unsigned i = 1; i < n; ++i) {
        threads_.emplace_back([this, i] { worker_main(i); });
      }
      // Pool lifecycle events only — never per-parallel_for, which would
      // flush the rings' useful tail within one op.
      pygb::flightrec::record(pygb::flightrec::EventKind::kPool, "start", n);
    } catch (...) {
      stop_workers();  // partial spawn: fall back to inline execution
    }
  }

  /// Drain and join every worker (submit_mu_ held).
  void stop_workers() {
    {
      std::lock_guard publish(job_mu_);
      stop_ = true;
    }
    job_cv_.notify_all();
    for (auto& th : threads_) th.join();
    threads_.clear();
    std::lock_guard publish(job_mu_);
    stop_ = false;
  }

  void worker_main(unsigned index) {
    t_in_pool_task = true;
    // seen starts at 0 while job_seq_ survives pool restarts, so the wake
    // predicate must also require a live job: a worker spawned into a
    // process that already ran jobs would otherwise wake to a stale
    // sequence number with current_ == nullptr. current_ stays set until
    // every worker (this one included) has acknowledged, so no worker can
    // sleep through a job.
    std::uint64_t seen = 0;
    std::unique_lock lock(job_mu_);
    while (true) {
      job_cv_.wait(lock, [&] {
        return stop_ || (current_ != nullptr && job_seq_ != seen);
      });
      if (stop_) return;
      seen = job_seq_;
      Job* job = current_;
      lock.unlock();
      if (index < job->participants) run_participant(*job, index);
      lock.lock();
      if (--remaining_ == 0) done_cv_.notify_one();
    }
  }

  // Worker obs spans are emitted by the trampoline in parallel_for_rows
  // (compiled into the caller, which can reach pygb::obs; this file must
  // not assume libpygb is linked).
  static void run_participant(Job& job, unsigned index) {
    // Adopt the submitter's governor context (nullptr = default) so this
    // participant's checkpoints, deadlines, and memory charges belong to
    // the right tenant; restored before acknowledging the job, while the
    // submitter still owns the context's lifetime.
    pygb::governor::ThreadBind bind(job.gov_ctx);
    try {
      const IndexType begin = static_cast<IndexType>(index) * job.chunk;
      if (begin >= job.n) return;
      const IndexType end = std::min(job.n, begin + job.chunk);
      if (!job.has_error.load(std::memory_order_relaxed)) {
        // Governor checkpoint at the block boundary: a cancelled or
        // past-deadline op aborts before the block starts; the throw is
        // captured below like any kernel exception.
        pygb::governor::checkpoint();
        job.fn(job.ctx, begin, end);
      }
    } catch (...) {
      if (!job.has_error.exchange(true)) {
        job.error = std::current_exception();
      }
    }
  }

  std::mutex submit_mu_;  ///< one operation (and one resize) at a time

  std::mutex job_mu_;
  std::condition_variable job_cv_;   ///< workers park here between jobs
  std::condition_variable done_cv_;  ///< submitter waits for the drain
  Job* current_ = nullptr;           ///< guarded by job_mu_
  std::uint64_t job_seq_ = 0;        ///< guarded by job_mu_
  unsigned remaining_ = 0;           ///< unacknowledged workers, job_mu_
  bool stop_ = false;                ///< guarded by job_mu_

  std::vector<std::thread> threads_;  ///< guarded by submit_mu_
  std::atomic<unsigned> count_;
};

void api_parallel_for(IndexType n, PoolTaskFn fn, void* ctx) {
  WorkerPool::instance().parallel_for(n, fn, ctx);
}
unsigned api_num_threads() { return WorkerPool::instance().count(); }
void api_set_num_threads(unsigned n) { WorkerPool::instance().set_count(n); }
void api_checkpoint() { pygb::governor::checkpoint(); }
void api_mem_reserve(std::uint64_t bytes) {
  pygb::governor::mem_reserve(bytes);
}
void api_mem_release(std::uint64_t bytes) {
  pygb::governor::mem_release(bytes);
}
int api_fault_check(const char* site) {
  return static_cast<int>(pygb::faultinj::check(site).action);
}
void* api_request_current() {
  return static_cast<void*>(pygb::governor::bound_context());
}
void api_request_adopt(void* ctx) {
  // Raw (non-scoped) adopt for module-spawned threads; the module is
  // responsible for adopting nullptr before the context dies.
  pygb::governor::detail::t_bound =
      static_cast<pygb::governor::RequestContext*>(ctx);
}
// Leaf atomics for the mxv direction-optimization decisions (the simd
// backend's push-vs-pull choice, gbtl/ops/mxv.hpp). They live HERE — not in
// pygb::obs — because the notes arrive through this routing layer from both
// in-repo kernels and dlopen'd modules, and gbtl_pool cannot link obs;
// obs.cpp mirrors them into its counter table (kMxvPushDecisions /
// kMxvPullDecisions) the same way it mirrors the governor's stats.
std::atomic<std::uint64_t> g_mxv_push_decisions{0};
std::atomic<std::uint64_t> g_mxv_pull_decisions{0};

void note_counters(const char* what) {
  if (std::strcmp(what, "mxv_push") == 0) {
    g_mxv_push_decisions.fetch_add(1, std::memory_order_relaxed);
  } else if (std::strcmp(what, "mxv_pull") == 0) {
    g_mxv_pull_decisions.fetch_add(1, std::memory_order_relaxed);
  }
}

void api_flight_note(const char* what, std::uint64_t v0, std::uint64_t v1) {
  note_counters(what);
  pygb::flightrec::record(pygb::flightrec::EventKind::kModule, what, v0, v1);
}

}  // namespace

unsigned pool_num_threads() { return WorkerPool::instance().count(); }

void pool_set_num_threads(unsigned n) { WorkerPool::instance().set_count(n); }

void pool_parallel_for(IndexType n, PoolTaskFn fn, void* ctx) {
  WorkerPool::instance().parallel_for(n, fn, ctx);
}

void pool_checkpoint() { pygb::governor::checkpoint(); }

void pool_mem_reserve(std::uint64_t bytes) {
  pygb::governor::mem_reserve(bytes);
}

void pool_mem_release(std::uint64_t bytes) noexcept {
  pygb::governor::mem_release(bytes);
}

int pool_fault_check(const char* site) noexcept {
  return static_cast<int>(pygb::faultinj::check(site).action);
}

void pool_flight_note(const char* what, std::uint64_t v0,
                      std::uint64_t v1) noexcept {
  note_counters(what);
  pygb::flightrec::record(pygb::flightrec::EventKind::kModule, what, v0, v1);
}

std::uint64_t mxv_push_decisions() noexcept {
  return g_mxv_push_decisions.load(std::memory_order_relaxed);
}
std::uint64_t mxv_pull_decisions() noexcept {
  return g_mxv_pull_decisions.load(std::memory_order_relaxed);
}
void reset_mxv_decisions() noexcept {
  g_mxv_push_decisions.store(0, std::memory_order_relaxed);
  g_mxv_pull_decisions.store(0, std::memory_order_relaxed);
}

void* pool_request_current() noexcept {
  return static_cast<void*>(pygb::governor::bound_context());
}

void pool_request_adopt(void* ctx) noexcept { api_request_adopt(ctx); }

const PoolApi* host_pool_api() {
  static const PoolApi api{kPoolAbiVersion,    &api_parallel_for,
                           &api_num_threads,   &api_set_num_threads,
                           &api_checkpoint,    &api_mem_reserve,
                           &api_mem_release,   &api_fault_check,
                           &api_flight_note,   &api_request_current,
                           &api_request_adopt, /*drivers=*/nullptr};
  return &api;
}

}  // namespace gbtl::detail
