#include "loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace perfbench {

OpenLoopResult run_open_loop(double rate, double seconds,
                             unsigned max_inflight,
                             const std::function<bool(std::size_t)>& send,
                             std::size_t first_index) {
  using Clock = std::chrono::steady_clock;
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  const std::size_t count =
      static_cast<std::size_t>(std::max(1.0, rate * seconds));
  OpenLoopResult res;
  res.latency_ms.assign(count, 0.0);
  res.late_ms.assign(count, 0.0);
  std::vector<char> ok(count, 0);

  std::mutex mu;
  std::condition_variable cv;
  unsigned idle = max_inflight;
  bool has_task = false;
  bool stop = false;
  std::size_t task = 0;
  Clock::time_point task_due;

  const auto start = Clock::now() + std::chrono::milliseconds(1);
  auto due_of = [&](std::size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(k) /
                                                     rate));
  };

  std::vector<std::thread> workers;
  workers.reserve(max_inflight);
  for (unsigned w = 0; w < max_inflight; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        std::size_t k;
        Clock::time_point due;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return has_task || stop; });
          if (!has_task) return;
          has_task = false;
          k = task;
          due = task_due;
        }
        cv.notify_all();  // the dispatcher may hand out the next request
        res.late_ms[k] = ms(Clock::now() - due);
        ok[k] = send(first_index + k) ? 1 : 0;
        res.latency_ms[k] = ms(Clock::now() - due);
        {
          std::lock_guard<std::mutex> lock(mu);
          ++idle;
        }
        cv.notify_all();
      }
    });
  }

  for (std::size_t k = 0; k < count; ++k) {
    const auto due = due_of(k);
    // Sleep to just before the due time, then spin: waking a halted
    // virtual CPU from a timer can take milliseconds, which would show up
    // as generator lateness in every request's latency.
    std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
    while (Clock::now() < due) {
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return idle > 0 && !has_task; });
    --idle;
    has_task = true;
    task = k;
    task_due = due;
    lock.unlock();
    cv.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return idle == max_inflight && !has_task; });
    stop = true;
  }
  cv.notify_all();
  for (std::thread& t : workers) t.join();
  res.wall_s = ms(Clock::now() - start) / 1e3;
  res.ok.assign(ok.begin(), ok.end());
  return res;
}

}  // namespace perfbench
