// Fixed-size worker pool and the process's one fan-out policy,
// ParallelFor(n, grain, body): every parallel loop of the library (the
// query executor's resolve and gather stages, Sgemm, the convolution and
// softmax kernels, tiled SAT builds) is one call to it. A loop of fewer
// than `grain` items, a loop whose pool has a single worker, and a loop
// issued from inside parallel work all run inline on the calling thread;
// otherwise the caller claims chunks from an atomic cursor alongside the
// pool's workers and returns once every chunk is done.
#ifndef ONE4ALL_CORE_THREAD_POOL_H_
#define ONE4ALL_CORE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace one4all {

/// \brief Non-owning reference to a loop body `body(begin, end)`: what
/// ParallelFor hands its participants, so no chunk allocates a
/// std::function. The referenced callable must outlive every call.
class RangeFn {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, RangeFn>>>
  RangeFn(const F& fn)  // NOLINT: implicit by design, like a function_ref
      : fn_(&fn), call_([](const void* f, int64_t begin, int64_t end) {
          (*static_cast<const F*>(f))(begin, end);
        }) {}

  void operator()(int64_t begin, int64_t end) const {
    call_(fn_, begin, end);
  }

 private:
  const void* fn_;
  void (*call_)(const void*, int64_t, int64_t);
};

/// \brief Fixed pool of worker threads draining one shared FIFO queue.
class ThreadPool {
 public:
  /// \param num_threads Workers to start; clamped to >= 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// \brief Enqueues a task; runs as soon as a worker frees up.
  void Submit(std::function<void()> task);

  /// \brief Blocks until every task submitted so far has finished.
  void Wait();

  /// \brief Chunks run by ParallelFor calls that fanned out over this
  /// pool so far, on any thread (inline calls count none): shows whether
  /// a loop fanned out, whichever threads ended up running its chunks.
  int64_t chunks_fanned_out() const {
    return chunks_fanned_out_.load(std::memory_order_relaxed);
  }

  /// \brief Cores this process may run on: the size of its CPU affinity
  /// mask (sched_getaffinity), so taskset/cgroup pinning is honoured.
  /// Falls back to std::thread::hardware_concurrency() where the mask is
  /// unavailable; never less than 1.
  static int HardwareThreads();

  /// \brief Lazily-created process-wide pool with HardwareThreads()
  /// workers: the pool every ParallelFor fans out over unless a
  /// ScopedComputePool installs another. Never destroyed (workers idle
  /// when unused).
  static ThreadPool* Shared();

 private:
  friend void ParallelFor(int64_t n, int64_t grain, RangeFn body);

  /// \brief ParallelFor's fan-out, once it has chosen this pool: cuts
  /// [0, n) into about 4 chunks per participant, enqueues up to
  /// num_threads() helper tasks, and claims chunks from the same atomic
  /// cursor as they do. Returns once every chunk has finished, whether or
  /// not every helper has started: a helper that starts late finds no
  /// chunk left.
  void FanOut(int64_t n, RangeFn body);

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< signals workers: task or stop
  std::condition_variable idle_cv_;  ///< signals Wait(): pending hit zero
  int64_t pending_ = 0;              ///< queued + currently running tasks
  bool stop_ = false;
  std::atomic<int64_t> chunks_fanned_out_{0};
};

/// \brief Installs `pool` as the calling thread's ambient pool for the
/// guard's lifetime; restores the previous one on destruction. The
/// ambient pool is thread_local, so pool workers see none. A null `pool`
/// installs none: loops on this thread fan out over ThreadPool::Shared()
/// again. A one-worker pool is how a thread keeps every loop inline.
class ScopedComputePool {
 public:
  explicit ScopedComputePool(ThreadPool* pool);
  ~ScopedComputePool();
  ScopedComputePool(const ScopedComputePool&) = delete;
  ScopedComputePool& operator=(const ScopedComputePool&) = delete;

 private:
  ThreadPool* previous_;
};

/// \brief The fan-out policy: runs `body(begin, end)` over contiguous
/// chunks that cover [0, n) exactly once. `grain` is the fewest items
/// worth fanning out, in the loop's own items. Inline, as one body(0, n)
/// call on the calling thread, when n < max(grain, 2), when the calling
/// thread is already parallel work (a pool worker, or a caller draining
/// chunks) so nesting cannot deadlock, or when the pool it would use (the
/// ambient pool, else ThreadPool::Shared()) has a single worker.
/// Otherwise the caller works alongside that pool's workers.
void ParallelFor(int64_t n, int64_t grain, RangeFn body);

}  // namespace one4all

#endif  // ONE4ALL_CORE_THREAD_POOL_H_
