#pragma once
// Self time per layer from an obs span trace.
//
// A traced run records the benchmark's own layer-boundary spans together
// with the spans the libraries already open (gk.solve, svc.eval, ...).
// Spans nest per thread, so raw totals double-count: a layer's self time
// is its spans' durations minus the part their child spans cover. Self
// times are summed over threads (pool workers included), so they add up
// to busy time, not wall time.

#include <cstddef>
#include <map>
#include <string>

namespace perfbench {

struct TraceSummary {
  std::map<std::string, double> self_ms;   ///< by layer
  std::map<std::string, double> total_ms;  ///< by span name (inclusive)
  std::size_t spans = 0;
  std::size_t dropped = 0;
};

/// Layer a span belongs to: its first dotted segment, except that GK spans
/// ("gk.*") are mcf and journal recovery ("svc.recover", "durable.*") is
/// durable.
std::string layer_of(const std::string& span_name);

/// Reads a trace written by obs::write_trace. Returns false when the file
/// cannot be read or holds a malformed line.
bool summarize_trace(const std::string& path, TraceSummary& out);

}  // namespace perfbench
