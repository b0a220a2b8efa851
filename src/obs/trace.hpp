#pragma once
// Lightweight tracing spans with a JSON-lines exporter.
//
// A span measures one monotonic-clock interval on one thread:
//
//   void solve() {
//     OBS_SPAN("gk.solve");          // whole call
//     while (...) {
//       OBS_SPAN("gk.phase");        // nested: depth 1 under gk.solve
//       ...
//     }
//   }
//
// Spans are inert (one relaxed atomic load) unless tracing has been started
// with start_tracing(). While active, each completed span appends a record
// to a thread-local buffer; write_trace() collects every buffer, sorts by
// start time, and writes one JSON object per line:
//
//   {"event":"trace_meta","spans":N,"dropped":D}
//   {"event":"span","name":"gk.phase","tid":0,"depth":1,"t_us":12.250,"dur_us":843.100}
//
// `tid` is a small per-run thread ordinal (registration order), `t_us` is
// microseconds since start_tracing(). Span names must be string literals
// (the buffer stores the pointer, not a copy). The global buffer is capped
// (kMaxTraceEvents); past the cap spans are counted as dropped rather than
// recorded, so runaway loops cannot exhaust memory.

#include <cstdint>
#include <string>

namespace flattree::obs {

/// Total span cap across all threads per tracing session.
constexpr std::size_t kMaxTraceEvents = 1u << 20;

bool tracing();

/// Clears any previous session and starts recording spans.
void start_tracing();

/// Stops recording; already-recorded spans stay buffered for write_trace().
void stop_tracing();

/// Writes the buffered session as JSON lines. Returns false (and logs
/// nothing) when the file cannot be opened. Stops tracing first.
bool write_trace(const std::string& path);

/// RAII span; prefer the OBS_SPAN macro. `name` must outlive the tracing
/// session (string literals do).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
};

}  // namespace flattree::obs

#define FLATTREE_OBS_CONCAT2(a, b) a##b
#define FLATTREE_OBS_CONCAT(a, b) FLATTREE_OBS_CONCAT2(a, b)
/// Opens a span covering the rest of the enclosing scope.
#define OBS_SPAN(name) \
  ::flattree::obs::Span FLATTREE_OBS_CONCAT(obs_span_, __LINE__)(name)
