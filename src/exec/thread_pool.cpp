#include "exec/thread_pool.hpp"

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flattree::exec {

namespace {

obs::Counter c_jobs("exec.pool.jobs");
obs::Gauge g_threads("exec.pool.threads");
obs::Counter c_chunks("exec.pool.chunks");
obs::Counter c_busy_ns("exec.pool.busy_ns");
obs::Histogram h_worker_busy("exec.pool.worker_busy_ms",
                             obs::Histogram::exponential_bounds(0.01, 4.0, 12));

std::uint64_t busy_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

thread_local bool t_in_task = false;

/// RAII marker for "this thread is executing pool chunks".
struct TaskScope {
  TaskScope() { t_in_task = true; }
  ~TaskScope() { t_in_task = false; }
};

}  // namespace

unsigned hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

unsigned default_threads() {
  if (const char* env = std::getenv("FLATTREE_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= long{kMaxThreads})
      return static_cast<unsigned>(v);
  }
  return hardware_threads();
}

bool ThreadPool::in_task() { return t_in_task; }

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_threads();
  workers_.reserve(threads - 1);
  for (unsigned i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::work(const std::function<void(std::size_t)>& fn) {
  TaskScope scope;
  // Observability: count chunks executed by this thread and the time spent
  // claiming+executing them ("busy", as opposed to waiting for a job), then
  // merge this thread's metric shard so a snapshot taken after run()
  // returns already sees everything. All of it is skipped when disabled.
  const bool observe = obs::enabled();
  const std::uint64_t t0 = observe ? busy_clock_ns() : 0;
  std::uint64_t executed = 0;
  for (;;) {
    std::size_t c = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks_ || abort_.load(std::memory_order_relaxed)) break;
    try {
      fn(c);
      ++executed;
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!error_) error_ = std::current_exception();
      abort_.store(true, std::memory_order_relaxed);
    }
  }
  if (observe) {
    std::uint64_t busy = busy_clock_ns() - t0;
    c_chunks.add(executed);
    c_busy_ns.add(busy);
    h_worker_busy.observe(static_cast<double>(busy) / 1e6);
    obs::flush_thread_metrics();
  }
}

void ThreadPool::worker_loop() {
  std::size_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn;
    {
      std::unique_lock lock(mutex_);
      job_cv_.wait(lock, [&] { return stop_ || job_id_ != seen; });
      if (stop_) return;
      seen = job_id_;
      fn = job_;
    }
    work(*fn);
    {
      std::lock_guard lock(mutex_);
      if (--active_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::run(std::size_t chunks, const std::function<void(std::size_t)>& fn) {
  if (t_in_task)
    throw std::logic_error(
        "ThreadPool::run: nested parallel call from inside a pool task "
        "(use exec::parallel_for, which falls back to sequential)");
  if (chunks == 0) return;
  OBS_SPAN("exec.run");
  c_jobs.inc();
  g_threads.set(threads());
  if (workers_.empty() || chunks == 1) {
    // Sequential fallback: same chunk order as the deterministic reduction,
    // no synchronization. Exceptions propagate directly.
    const bool observe = obs::enabled();
    const std::uint64_t t0 = observe ? busy_clock_ns() : 0;
    TaskScope scope;
    for (std::size_t c = 0; c < chunks; ++c) fn(c);
    if (observe) {
      std::uint64_t busy = busy_clock_ns() - t0;
      c_chunks.add(chunks);
      c_busy_ns.add(busy);
      h_worker_busy.observe(static_cast<double>(busy) / 1e6);
    }
    return;
  }
  {
    std::lock_guard lock(mutex_);
    job_ = &fn;
    chunks_ = chunks;
    cursor_.store(0, std::memory_order_relaxed);
    abort_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    active_ = static_cast<unsigned>(workers_.size());
    ++job_id_;
  }
  job_cv_.notify_all();
  work(fn);  // the caller is one of the execution threads
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [&] { return active_ == 0; });
  job_ = nullptr;
  if (error_) std::rethrow_exception(error_);
}

}  // namespace flattree::exec
