#pragma once
// Fixed-size thread pool with a chunked task queue ("work-stealing-lite").
//
// One pool = one fixed worker set. A job is a count of independent chunks;
// workers (plus the calling thread, which participates) claim chunk indices
// from a shared atomic cursor until the queue drains. There is no task
// graph and no stealing between per-worker deques — the shared cursor gives
// the same load-balancing effect for the embarrassingly parallel loops this
// library exists for (per-source BFS, per-commodity shortest paths) at a
// fraction of the complexity.
//
// Determinism contract: the pool itself never reorders *results* — callers
// that want deterministic output write per-chunk results into preallocated
// slots (see parallel_for.hpp) and reduce them in chunk order afterwards.
// Chunk *execution* order is unspecified.
//
// Exceptions: the first exception thrown by any chunk aborts the job
// (remaining chunks are skipped) and is rethrown from run() on the calling
// thread. Nested run() calls from inside a chunk are rejected with
// std::logic_error; the higher-level parallel_for helpers degrade to
// sequential execution instead, so composed parallel code still works.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace flattree::exec {

/// Number of threads the hardware offers (>= 1).
unsigned hardware_threads();

/// The most execution threads a binary accepts, from --threads or from
/// FLATTREE_THREADS.
inline constexpr unsigned kMaxThreads = 256;

/// Default worker count: the FLATTREE_THREADS environment variable when set
/// to an integer in [1, kMaxThreads], otherwise hardware_threads().
unsigned default_threads();

class ThreadPool {
 public:
  /// Creates `threads` total execution threads (the caller of run() counts
  /// as one, so `threads - 1` workers are spawned). `threads == 0` means
  /// default_threads(). With `threads == 1` the pool is a pure sequential
  /// fallback: run() executes chunks inline in index order.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution threads (workers + participating caller).
  unsigned threads() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Executes fn(chunk) for every chunk in [0, chunks), blocking until all
  /// chunks finish. Rethrows the first chunk exception. Throws
  /// std::logic_error when called from inside any pool task on this thread.
  void run(std::size_t chunks, const std::function<void(std::size_t)>& fn);

  /// True while the current thread is executing a pool chunk (of any pool).
  static bool in_task();

 private:
  void worker_loop();
  void work(const std::function<void(std::size_t)>& fn);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable job_cv_;   ///< wakes workers on a new job / stop
  std::condition_variable done_cv_;  ///< wakes the caller when a job drains
  const std::function<void(std::size_t)>* job_ = nullptr;  // valid while active_ > 0
  std::size_t job_id_ = 0;     ///< generation counter workers wait on
  std::size_t chunks_ = 0;     ///< chunk count of the current job
  unsigned active_ = 0;        ///< workers still inside the current job
  bool stop_ = false;
  std::exception_ptr error_;   ///< first chunk exception of the current job

  std::atomic<std::size_t> cursor_{0};  ///< next unclaimed chunk
  std::atomic<bool> abort_{false};      ///< set on first chunk exception
};

}  // namespace flattree::exec
