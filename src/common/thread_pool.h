#ifndef GIR_COMMON_THREAD_POOL_H_
#define GIR_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace gir {

// Fixed-size worker pool over a single shared FIFO queue (deliberately
// work-stealing-free: batch queries are coarse enough that one mutex-
// protected queue never becomes the bottleneck, and FIFO order keeps
// latency fair across a batch). Workers are spawned once in the
// constructor; the destructor drains the queue and joins. The owner
// must externally serialize Submit with destruction — submitting
// concurrently with (or after) teardown is undefined behavior.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads) {
    if (num_threads == 0) num_threads = 1;
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  // Enqueues a task for execution on some worker thread.
  void Submit(std::function<void()> task) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  // Enqueues a callable and returns a future for its result.
  template <typename F>
  auto Async(F&& f) -> std::future<decltype(f())> {
    using R = decltype(f());
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> out = task->get_future();
    Submit([task] { (*task)(); });
    return out;
  }

  // Runs body(i) for every i in [0, n), spread across the calling
  // thread and the pool, and blocks until all iterations finish.
  // Iterations are claimed from a shared atomic counter, so a slow
  // iteration never strands work behind it. The caller claims
  // iterations too, and only min(n, size()) - 1 helpers are submitted:
  // at most size() threads run one call, and ParallelFor(1, ...) runs
  // on the caller without waking a worker. If any iteration throws,
  // the remaining claimed iterations still run, and the first exception
  // is rethrown here on the calling thread once every iteration has
  // finished (it must not escape into a worker: an uncaught exception
  // on a std::thread terminates the process). A call with no helpers
  // (n == 1, or a one-thread pool) runs inline on the caller, with no
  // shared state. The body must not call ParallelFor on the same pool
  // (the workers would deadlock waiting on themselves).
  void ParallelFor(size_t n, const std::function<void(size_t)>& body) {
    if (n == 0) return;
    const size_t helpers = std::min(n, size()) - 1;
    if (helpers == 0) {
      std::exception_ptr error;
      for (size_t i = 0; i < n; ++i) {
        try {
          body(i);
        } catch (...) {
          if (!error) error = std::current_exception();
        }
      }
      if (error) std::rethrow_exception(error);
      return;
    }
    struct SharedState {
      std::atomic<size_t> next{0};
      std::atomic<size_t> done{0};
      std::promise<void> all_done;
      std::mutex error_mu;
      std::exception_ptr error;
    };
    auto state = std::make_shared<SharedState>();
    std::future<void> finished = state->all_done.get_future();
    // A helper that starts after the caller claimed the last iteration
    // finds the counter spent and returns without touching `body`.
    auto claim = [state, n, &body] {
      for (size_t i = state->next.fetch_add(1); i < n;
           i = state->next.fetch_add(1)) {
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->error_mu);
          if (!state->error) state->error = std::current_exception();
        }
        if (state->done.fetch_add(1) + 1 == n) {
          state->all_done.set_value();
        }
      }
    };
    for (size_t t = 0; t < helpers; ++t) Submit(claim);
    claim();
    finished.wait();
    // Take the exception out of the shared state: a late helper may drop
    // the state's last reference, and the exception must not be released
    // on that thread while the caller still handles it.
    std::exception_ptr error = std::move(state->error);
    if (error) std::rethrow_exception(error);
  }

 private:
  void WorkerLoop() {
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

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// A short-lived pool for one-off set-up work over `rows` records (bulk
// load, freeze): one worker per hardware thread. Null — the callers
// then run inline — on a single core, and below 8192 records: on 4
// vCPUs a pool saved ~1 ms of a 4.7 ms bulk load plus freeze at 8192
// rows, and nothing at 4096, where starting the workers cost the
// freeze what the slabs gained.
inline std::unique_ptr<ThreadPool> MakeSetupPool(size_t rows) {
  constexpr size_t kMinRows = 8192;
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores <= 1 || rows < kMinRows) return nullptr;
  return std::make_unique<ThreadPool>(cores);
}

}  // namespace gir

#endif  // GIR_COMMON_THREAD_POOL_H_
