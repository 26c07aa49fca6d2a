#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "tensor/tensor.h"

namespace hetero {
namespace {

// Which worker slot this thread occupies in its pool. A thread belongs to
// at most one pool for its whole lifetime, so a single thread_local works.
thread_local std::size_t t_worker_index = ThreadPool::npos;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_workers) {
  HS_CHECK(num_workers > 0, "ThreadPool: need at least one worker");
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::worker_index() { return t_worker_index; }

void ThreadPool::worker_loop(std::size_t index) {
  t_worker_index = index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  HS_CHECK(static_cast<bool>(fn), "ThreadPool::parallel_for: empty body");

  // Shared between the drivers enqueued below. Drivers pull indices from
  // `next` until exhausted (or an exception poisons the loop); the last
  // driver to finish wakes the caller.
  struct State {
    std::atomic<std::size_t> next{0};
    std::size_t n = 0;
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t active = 0;
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();
  state->n = n;

  const std::size_t drivers = std::min(num_workers(), n);
  state->active = drivers;

  auto drive = [state, &fn] {
    for (;;) {
      const std::size_t i =
          state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->n) break;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (!state->error) state->error = std::current_exception();
        // Poison the counter so other drivers stop picking up work.
        state->next.store(state->n, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> lock(state->mu);
    if (--state->active == 0) state->done_cv.notify_all();
  };

  {
    std::lock_guard<std::mutex> lock(mu_);
    HS_CHECK(!stop_, "ThreadPool::parallel_for: pool is shutting down");
    for (std::size_t d = 0; d < drivers; ++d) queue_.emplace_back(drive);
  }
  cv_.notify_all();

  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&state] { return state->active == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace hetero
