#pragma once
// Deterministic parallel loops over index ranges.
//
// The chunking of [0, n) depends ONLY on n and the grain (never on the
// thread count), and reductions combine per-chunk partials in ascending
// chunk order on the calling thread. Floating-point accumulation therefore
// produces bit-identical results at any thread count — the property every
// figure bench relies on for its `--threads 1` vs `--threads 8`
// byte-identical output guarantee.
//
// All helpers degrade gracefully:
//   * pool.threads() == 1  -> inline sequential execution (same chunk order)
//   * called from inside a pool task (nested parallelism) -> sequential,
//     because ThreadPool::run rejects nesting.
//
// Randomized chunk bodies should derive their RNG from the chunk index via
// util::Rng::substream(seed, chunk) so the stream assignment is also
// independent of the thread count.

#include <cstddef>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"

namespace flattree::exec {

/// Half-open index range of one chunk.
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Number of grain-sized chunks covering [0, n). grain == 0 is treated as 1.
inline std::size_t chunk_count(std::size_t n, std::size_t grain) {
  if (grain == 0) grain = 1;
  return (n + grain - 1) / grain;
}

/// The c-th grain-sized chunk of [0, n).
inline Range chunk_range(std::size_t n, std::size_t grain, std::size_t c) {
  if (grain == 0) grain = 1;
  std::size_t begin = c * grain;
  std::size_t end = begin + grain < n ? begin + grain : n;
  return {begin, end};
}

/// Runs body(begin, end, chunk) for every grain-sized chunk of [0, n).
/// Falls back to sequential in-order execution when nested inside a task.
template <typename Body>
void parallel_for_chunked(ThreadPool& pool, std::size_t n, std::size_t grain,
                          Body&& body) {
  const std::size_t chunks = chunk_count(n, grain);
  if (chunks == 0) return;
  if (ThreadPool::in_task()) {
    for (std::size_t c = 0; c < chunks; ++c) {
      Range r = chunk_range(n, grain, c);
      body(r.begin, r.end, c);
    }
    return;
  }
  pool.run(chunks, [&](std::size_t c) {
    Range r = chunk_range(n, grain, c);
    body(r.begin, r.end, c);
  });
}

/// Runs body(i) for every i in [0, n), grain indices per task.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t n, Body&& body, std::size_t grain = 1) {
  parallel_for_chunked(pool, n, grain,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         for (std::size_t i = begin; i < end; ++i) body(i);
                       });
}

/// Ordered deterministic reduction: partials[c] = map(begin, end, c) per
/// chunk (computed in parallel), then folded left-to-right in chunk order
/// with combine(acc, partial) on the calling thread. The result is
/// independent of the thread count and of chunk execution order.
template <typename T, typename Map, typename Combine>
T parallel_reduce(ThreadPool& pool, std::size_t n, std::size_t grain, T identity,
                  Map&& map, Combine&& combine) {
  const std::size_t chunks = chunk_count(n, grain);
  if (chunks == 0) return identity;
  std::vector<T> partials(chunks, identity);
  parallel_for_chunked(pool, n, grain,
                       [&](std::size_t begin, std::size_t end, std::size_t c) {
                         partials[c] = map(begin, end, c);
                       });
  T acc = std::move(identity);
  for (std::size_t c = 0; c < chunks; ++c) acc = combine(std::move(acc), std::move(partials[c]));
  return acc;
}

/// Shared process-wide pool, created on first use with default_threads().
ThreadPool& global_pool();

/// Replaces the global pool with one of `threads` threads (0 = default).
/// Call from a single thread before parallel work starts (benches do this
/// right after flag parsing); not safe concurrently with global_pool() use.
void set_global_threads(unsigned threads);

/// Convenience overloads on the global pool.
template <typename Body>
void parallel_for(std::size_t n, Body&& body, std::size_t grain = 1) {
  parallel_for(global_pool(), n, std::forward<Body>(body), grain);
}

template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t n, std::size_t grain, T identity, Map&& map,
                  Combine&& combine) {
  return parallel_reduce(global_pool(), n, grain, std::move(identity),
                         std::forward<Map>(map), std::forward<Combine>(combine));
}

}  // namespace flattree::exec
