// Fixed-size worker thread pool behind the event scheduler's client fan-out.
//
// Design goals, in order:
//   * deterministic client work: parallel_for hands out loop indices, and
//     the caller's per-index work must not depend on which worker runs it
//     (workers are identified by worker_index() so callers can bind
//     per-worker scratch state such as model replicas);
//   * exception safety: the first exception thrown by any task is captured
//     and rethrown on the calling thread;
//   * simplicity: a mutex + condition-variable task queue. Clients train
//     for milliseconds per task, so queue overhead is noise.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hetero {

class ThreadPool {
 public:
  /// Sentinel returned by worker_index() on non-worker threads.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Spawns num_workers threads. num_workers must be positive.
  explicit ThreadPool(std::size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_workers() const { return workers_.size(); }

  /// Index of the calling thread within its pool ([0, num_workers)), or
  /// npos when the caller is not a pool worker.
  static std::size_t worker_index();

  /// Runs fn(i) for every i in [0, n) across the workers and blocks until
  /// all calls finish. Indices are claimed from a shared counter, so each
  /// index runs exactly once on exactly one worker. If any call throws,
  /// remaining indices are abandoned and the first exception is rethrown
  /// here. The calling thread only waits; it never executes fn itself.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace hetero
