#include "util/thread_pool.h"

#include <atomic>
#include <limits>

#include "util/trace.h"

namespace nanomap {
namespace {

// Which pool (if any) owns the current thread. Used both for
// on_worker_thread() and to make reentrant parallel_for calls run inline
// instead of deadlocking on their own queue.
thread_local const ThreadPool* tl_owner = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  num_threads_ = num_threads > 0 ? num_threads : hardware_threads();
  if (num_threads_ <= 1) return;  // degenerate pool: inline execution
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  // The calling thread participates in parallel_for, so a pool of N
  // threads needs only N-1 workers.
  for (int i = 0; i < num_threads_ - 1; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int ThreadPool::hardware_threads() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

bool ThreadPool::on_worker_thread() const { return tl_owner == this; }

void ThreadPool::worker_loop() {
  tl_owner = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> future = task->get_future();
  if (workers_.empty()) {
    (*task)();  // degenerate pool: run inline, future is already ready
    return future;
  }
  // The submitting thread's trace collector rides along with the task,
  // so a run's pool-side work records into the run's own collector.
  TraceCollector* trace = active_trace_collector();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back([task, trace] {
      TraceScope scope(trace);
      (*task)();
    });
  }
  cv_.notify_one();
  return future;
}

// Shared progress of one parallel_for: a work-stealing index counter plus
// the lowest-index exception seen so far.
struct ThreadPool::ForState {
  std::atomic<int> next{0};
  int n = 0;
  const std::function<void(int)>* fn = nullptr;

  std::mutex mu;
  std::condition_variable done_cv;
  int participants_done = 0;
  int first_error_index = std::numeric_limits<int>::max();
  std::exception_ptr first_error;

  void record_error(int index, std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (index < first_error_index) {
      first_error_index = index;
      first_error = e;
    }
  }

  void run_indices() {
    for (;;) {
      int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*fn)(i);
      } catch (...) {
        record_error(i, std::current_exception());
      }
    }
  }
};

void ThreadPool::run_sequential(int n, const std::function<void(int)>& fn) {
  // Same contract as the parallel path: attempt every index, then rethrow
  // the exception of the lowest failing one.
  int first_error_index = std::numeric_limits<int>::max();
  std::exception_ptr first_error;
  for (int i = 0; i < n; ++i) {
    try {
      fn(i);
    } catch (...) {
      if (i < first_error_index) {
        first_error_index = i;
        first_error = std::current_exception();
      }
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (workers_.empty() || on_worker_thread() || n == 1) {
    run_sequential(n, fn);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->n = n;
  state->fn = &fn;
  // Helpers inherit the calling thread's trace collector (see submit()).
  TraceCollector* trace = active_trace_collector();
  // One helper task per worker that could usefully participate; the
  // calling thread is the final participant.
  const int helpers = std::min(static_cast<int>(workers_.size()), n - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int h = 0; h < helpers; ++h) {
      queue_.push_back([state, trace] {
        TraceScope scope(trace);
        state->run_indices();
        {
          std::lock_guard<std::mutex> slock(state->mu);
          ++state->participants_done;
        }
        state->done_cv.notify_one();
      });
    }
  }
  cv_.notify_all();

  state->run_indices();
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&] {
      return state->participants_done == helpers;
    });
    if (state->first_error) std::rethrow_exception(state->first_error);
  }
}

}  // namespace nanomap
