#include "obs/trace.hpp"

#include "obs/json.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

namespace flattree::obs {

namespace {

struct TraceEvent {
  const char* name;
  std::uint32_t tid;
  std::uint32_t depth;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};

/// Session state. Leaked (like the metrics store) so thread-exit flushes
/// never race static destruction.
struct TraceState {
  std::mutex mu;
  std::vector<std::vector<TraceEvent>*> live;  ///< registered thread buffers
  std::vector<TraceEvent> retired;             ///< buffers of exited threads
  std::atomic<std::uint64_t> t0_ns{0};
  /// Bumped by start_tracing; stale buffers self-clear. Atomic because spans
  /// read it outside the lock on their fast path.
  std::atomic<std::uint64_t> session{0};
  std::uint32_t next_tid = 0;
  std::atomic<std::size_t> recorded{0};
  std::atomic<std::uint64_t> dropped{0};
};

TraceState& state() {
  static TraceState* s = new TraceState;
  return *s;
}

std::atomic<bool> g_tracing{false};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-thread buffer, registered with the session on first span.
struct ThreadBuf {
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
  std::uint64_t session = ~0ull;

  ~ThreadBuf() {
    TraceState& s = state();
    std::lock_guard lock(s.mu);
    auto it = std::find(s.live.begin(), s.live.end(), &events);
    if (it != s.live.end()) s.live.erase(it);
    if (session == s.session.load(std::memory_order_relaxed))
      s.retired.insert(s.retired.end(), events.begin(), events.end());
  }

  void ensure_session() {
    TraceState& s = state();
    std::lock_guard lock(s.mu);
    if (session == s.session.load(std::memory_order_relaxed)) return;
    // New session: drop stale events, (re)register, take a fresh tid.
    events.clear();
    session = s.session.load(std::memory_order_relaxed);
    tid = s.next_tid++;
    if (std::find(s.live.begin(), s.live.end(), &events) == s.live.end())
      s.live.push_back(&events);
  }
};

thread_local ThreadBuf t_buf;
thread_local std::uint32_t t_depth = 0;

}  // namespace

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

void start_tracing() {
  TraceState& s = state();
  {
    std::lock_guard lock(s.mu);
    s.session.fetch_add(1, std::memory_order_relaxed);
    s.live.clear();  // buffers re-register lazily with fresh tids
    s.retired.clear();
    s.next_tid = 0;
    s.t0_ns.store(now_ns(), std::memory_order_relaxed);
    s.recorded.store(0, std::memory_order_relaxed);
    s.dropped.store(0, std::memory_order_relaxed);
  }
  g_tracing.store(true, std::memory_order_relaxed);
}

void stop_tracing() { g_tracing.store(false, std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!tracing()) return;
  active_ = true;
  name_ = name;
  depth_ = t_depth++;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!active_) return;
  --t_depth;
  std::uint64_t end = now_ns();
  TraceState& s = state();
  if (!tracing() && t_buf.session != s.session.load(std::memory_order_relaxed))
    return;  // session already reset
  if (s.recorded.fetch_add(1, std::memory_order_relaxed) >= kMaxTraceEvents) {
    s.recorded.fetch_sub(1, std::memory_order_relaxed);
    s.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  t_buf.ensure_session();
  std::uint64_t t0 = s.t0_ns.load(std::memory_order_relaxed);  // stable per session
  t_buf.events.push_back(
      {name_, t_buf.tid, depth_, start_ns_ - t0, end - start_ns_});
}

namespace {

std::vector<TraceEvent> collect_events() {
  TraceState& s = state();
  std::lock_guard lock(s.mu);
  std::vector<TraceEvent> all = s.retired;
  for (const auto* buf : s.live) all.insert(all.end(), buf->begin(), buf->end());
  std::sort(all.begin(), all.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    if (a.depth != b.depth) return a.depth < b.depth;
    return a.tid < b.tid;
  });
  return all;
}

}  // namespace


bool write_trace(const std::string& path) {
  stop_tracing();
  std::vector<TraceEvent> events = collect_events();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"event\":\"trace_meta\",\"spans\":%zu,\"dropped\":%llu}\n",
               events.size(),
               static_cast<unsigned long long>(
                   state().dropped.load(std::memory_order_relaxed)));
  for (const TraceEvent& e : events) {
    std::fprintf(f,
                 "{\"event\":\"span\",\"name\":\"%s\",\"tid\":%u,\"depth\":%u,"
                 "\"t_us\":%.3f,\"dur_us\":%.3f}\n",
                 json_escape(e.name).c_str(), e.tid, e.depth,
                 static_cast<double>(e.start_ns) / 1e3,
                 static_cast<double>(e.dur_ns) / 1e3);
  }
  std::fclose(f);
  return true;
}

}  // namespace flattree::obs
