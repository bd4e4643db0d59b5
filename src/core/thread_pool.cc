#include "core/thread_pool.h"

#include <algorithm>

#if defined(__linux__)
#include <sched.h>
#endif

#include "core/logging.h"

namespace one4all {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  O4A_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    O4A_CHECK(!stop_) << "Submit() on a destroyed ThreadPool";
    queue_.push_back(std::move(task));
    ++pending_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

void ThreadPool::ParallelFor(
    int64_t n, const std::function<void(int64_t, int64_t)>& body) {
  if (n <= 0) return;
  const int64_t threads = num_threads();
  if (threads <= 1 || n == 1) {
    body(0, n);
    return;
  }
  // A few chunks per worker smooths out per-range cost skew without
  // paying queue overhead per element.
  const int64_t chunks = std::min(n, threads * 4);
  const int64_t chunk = (n + chunks - 1) / chunks;

  std::mutex done_mu;
  std::condition_variable done_cv;
  int64_t remaining = 0;
  for (int64_t begin = 0; begin < n; begin += chunk) ++remaining;

  for (int64_t begin = 0; begin < n; begin += chunk) {
    const int64_t end = std::min(n, begin + chunk);
    Submit([&, begin, end] {
      body(begin, end);
      std::lock_guard<std::mutex> lock(done_mu);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

int ThreadPool::HardwareThreads() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int usable = CPU_COUNT(&set);
    if (usable > 0) return usable;
  }
#endif
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool* ThreadPool::Shared() {
  // Leaked intentionally: workers must outlive every static destructor
  // that might still submit work during shutdown.
  static ThreadPool* const pool = new ThreadPool(HardwareThreads());
  return pool;
}

namespace {
thread_local bool t_on_pool_worker = false;
}  // namespace

bool ThreadPool::OnWorkerThread() { return t_on_pool_worker; }

void ThreadPool::WorkerLoop() {
  t_on_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace one4all
