#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/parallel_for.hpp"

namespace flattree::exec {
namespace {

TEST(ThreadPool, StartStopAtEverySize) {
  // Construction spawns threads-1 workers; destruction joins them. Cycle a
  // few sizes to catch shutdown races (tsan runs this suite too).
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    for (int cycle = 0; cycle < 3; ++cycle) {
      ThreadPool pool(threads);
      EXPECT_EQ(pool.threads(), threads);
      std::atomic<int> hits{0};
      pool.run(10, [&](std::size_t) { hits.fetch_add(1); });
      EXPECT_EQ(hits.load(), 10);
    }
  }
}

TEST(ThreadPool, ZeroMeansDefaultThreads) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), default_threads());
  EXPECT_GE(default_threads(), 1u);
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ThreadPool, DefaultThreadsEnvHasTheFlagCap) {
  // FLATTREE_THREADS takes the --threads range: an integer in
  // [1, kMaxThreads]. Anything else falls back to hardware threads. Only
  // default_threads() is called here; no pool of these sizes is built.
  const char* saved = std::getenv("FLATTREE_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  struct Case {
    const char* value;
    unsigned want;
  };
  for (const Case& c : {Case{"1", 1u}, Case{"3", 3u}, Case{"256", kMaxThreads},
                        Case{"257", hardware_threads()}, Case{"4000000000", hardware_threads()},
                        Case{"0", hardware_threads()}, Case{"-1", hardware_threads()},
                        Case{"8x", hardware_threads()}}) {
    ASSERT_EQ(setenv("FLATTREE_THREADS", c.value, 1), 0);
    EXPECT_EQ(default_threads(), c.want) << c.value;
  }
  if (saved != nullptr)
    setenv("FLATTREE_THREADS", restore.c_str(), 1);
  else
    unsetenv("FLATTREE_THREADS");
}

TEST(ThreadPool, EveryChunkRunsExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(257);
  pool.run(counts.size(), [&](std::size_t c) { counts[c].fetch_add(1); });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, EmptyJobIsNoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.run(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleChunkRunsInline) {
  ThreadPool pool(4);
  int hits = 0;  // no atomic needed: one chunk executes on the caller
  pool.run(1, [&](std::size_t c) {
    EXPECT_EQ(c, 0u);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.run(64,
                          [&](std::size_t c) {
                            if (c == 37) throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    // The pool survives a failed job and accepts the next one.
    std::atomic<int> hits{0};
    pool.run(8, [&](std::size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 8);
  }
}

TEST(ThreadPool, ExceptionAbortsRemainingChunks) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.run(10000,
                        [&](std::size_t c) {
                          if (c == 0) throw std::runtime_error("early");
                          executed.fetch_add(1);
                        }),
               std::runtime_error);
  // Not all 9999 remaining chunks should have run after the abort flag set.
  EXPECT_LT(executed.load(), 10000);
}

TEST(ThreadPool, NestedRunRejected) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.run(4, [&](std::size_t) { pool.run(2, [](std::size_t) {}); }),
        std::logic_error);
  }
}

TEST(ThreadPool, InTaskReflectsExecutionContext) {
  EXPECT_FALSE(ThreadPool::in_task());
  ThreadPool pool(2);
  std::atomic<int> in_task_count{0};
  pool.run(16, [&](std::size_t) {
    if (ThreadPool::in_task()) in_task_count.fetch_add(1);
  });
  EXPECT_EQ(in_task_count.load(), 16);
  EXPECT_FALSE(ThreadPool::in_task());
}

TEST(ParallelFor, VisitsEveryIndex) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
}

TEST(ParallelFor, EmptyAndSingleElementRanges) {
  ThreadPool pool(4);
  int hits = 0;
  parallel_for(pool, 0, [&](std::size_t) { ++hits; });
  EXPECT_EQ(hits, 0);
  parallel_for(pool, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++hits;
  });
  EXPECT_EQ(hits, 1);

  EXPECT_EQ(parallel_reduce(pool, 0, 1, 7, [](std::size_t, std::size_t, std::size_t) { return 1; },
                            [](int a, int b) { return a + b; }),
            7);
}

TEST(ParallelFor, ChunkingIndependentOfThreadCount) {
  EXPECT_EQ(chunk_count(10, 3), 4u);
  EXPECT_EQ(chunk_count(0, 3), 0u);
  EXPECT_EQ(chunk_count(3, 0), 3u);  // grain 0 treated as 1
  Range last = chunk_range(10, 3, 3);
  EXPECT_EQ(last.begin, 9u);
  EXPECT_EQ(last.end, 10u);
}

TEST(ParallelFor, NestedCallsFallBackToSequential) {
  ThreadPool pool(4);
  std::atomic<int> inner_hits{0};
  parallel_for(pool, 8, [&](std::size_t) {
    // Nested parallel_for must not throw — it degrades to a plain loop.
    parallel_for(pool, 4, [&](std::size_t) { inner_hits.fetch_add(1); });
  });
  EXPECT_EQ(inner_hits.load(), 32);
}

TEST(ParallelFor, ReduceIsOrderedAndDeterministic) {
  // Sum of floats chosen so that reassociation changes the result: partials
  // must combine in chunk order regardless of thread count.
  std::vector<double> values(1001);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = (i % 2 ? 1.0 : -1.0) / static_cast<double>(i + 1);

  auto sum_at = [&](unsigned threads) {
    ThreadPool pool(threads);
    return parallel_reduce(
        pool, values.size(), /*grain=*/7, 0.0,
        [&](std::size_t b, std::size_t e, std::size_t) {
          double s = 0.0;
          for (std::size_t i = b; i < e; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  double base = sum_at(1);
  for (unsigned threads : {2u, 3u, 8u}) {
    for (int rep = 0; rep < 5; ++rep) EXPECT_EQ(sum_at(threads), base);
  }
}

TEST(GlobalPool, SetThreadsReplacesPool) {
  set_global_threads(3);
  EXPECT_EQ(global_pool().threads(), 3u);
  std::atomic<int> hits{0};
  parallel_for(100, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 100);
  set_global_threads(1);
  EXPECT_EQ(global_pool().threads(), 1u);
}

}  // namespace
}  // namespace flattree::exec
