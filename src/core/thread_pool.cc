#include "core/thread_pool.h"

#include <algorithm>
#include <memory>

#if defined(__linux__)
#include <sched.h>
#endif

#include "core/logging.h"

namespace one4all {

namespace {

/// True on pool workers and on a caller while it drains ParallelFor
/// chunks: a ParallelFor issued here runs inline.
thread_local bool t_in_parallel_work = false;

thread_local ThreadPool* t_compute_pool = nullptr;

/// Yields AwaitDone makes before it sleeps on the condition variable.
constexpr int kAwaitSpins = 256;

/// \brief One fanned-out ParallelFor. Shared by the caller and its
/// helper tasks, so a helper that starts after the caller returned still
/// finds the cursor (and no chunk left) instead of a dead stack frame.
struct ForJob {
  ForJob(RangeFn fn, int64_t items, int64_t chunk_items)
      : body(fn),
        n(items),
        chunk(chunk_items),
        num_chunks((items + chunk_items - 1) / chunk_items) {}

  /// \brief Claims and runs chunks until the cursor passes the end.
  void Drain() {
    const bool was_parallel = t_in_parallel_work;
    t_in_parallel_work = true;
    int64_t finished = 0;
    for (int64_t c = next.fetch_add(1, std::memory_order_relaxed);
         c < num_chunks; c = next.fetch_add(1, std::memory_order_relaxed)) {
      const int64_t begin = c * chunk;
      body(begin, std::min(n, begin + chunk));
      ++finished;
    }
    t_in_parallel_work = was_parallel;
    if (finished > 0 &&
        done.fetch_add(finished, std::memory_order_acq_rel) + finished ==
            num_chunks) {
      // Notify under the lock: the caller checks `done` under it, so the
      // wakeup cannot slip between its check and its wait.
      std::lock_guard<std::mutex> lock(mu);
      done_cv.notify_one();
    }
  }

  /// \brief Blocks until every chunk has finished. The chunks still out
  /// are other participants' last ones, so it yields a while before it
  /// sleeps: a condvar wakeup costs more than a chunk usually has left.
  void AwaitDone() {
    for (int spin = 0; spin < kAwaitSpins; ++spin) {
      if (done.load(std::memory_order_acquire) == num_chunks) return;
      std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [this] {
      return done.load(std::memory_order_acquire) == num_chunks;
    });
  }

  const RangeFn body;  ///< called only for a claimed chunk
  const int64_t n;
  const int64_t chunk;
  const int64_t num_chunks;
  std::atomic<int64_t> next{0};  ///< next unclaimed chunk
  std::atomic<int64_t> done{0};  ///< finished chunks
  std::mutex mu;
  std::condition_variable done_cv;
};

}  // namespace

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

void ThreadPool::FanOut(int64_t n, RangeFn body) {
  // About four chunks per participant (the workers plus the caller)
  // smooths per-range cost skew; the cursor makes a chunk cost one
  // relaxed fetch_add, not a queue round-trip.
  const int64_t participants = num_threads() + 1;
  const int64_t chunk = (n + 4 * participants - 1) / (4 * participants);
  const auto job = std::make_shared<ForJob>(body, n, chunk);
  const int64_t helpers =
      std::min<int64_t>(num_threads(), job->num_chunks - 1);
  for (int64_t i = 0; i < helpers; ++i) Submit([job] { job->Drain(); });
  job->Drain();
  job->AwaitDone();
  chunks_fanned_out_.fetch_add(job->num_chunks, std::memory_order_relaxed);
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

void ThreadPool::WorkerLoop() {
  t_in_parallel_work = true;
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

ScopedComputePool::ScopedComputePool(ThreadPool* pool)
    : previous_(t_compute_pool) {
  t_compute_pool = pool;
}

ScopedComputePool::~ScopedComputePool() { t_compute_pool = previous_; }

void ParallelFor(int64_t n, int64_t grain, RangeFn body) {
  if (n <= 0) return;
  // Under one grain no pool is resolved, so a process whose loops all
  // stay small never starts Shared()'s workers.
  ThreadPool* pool = nullptr;
  if (n >= std::max<int64_t>(grain, 2) && !t_in_parallel_work) {
    pool = t_compute_pool != nullptr ? t_compute_pool : ThreadPool::Shared();
  }
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->FanOut(n, body);
  } else {
    body(0, n);
  }
}

}  // namespace one4all
