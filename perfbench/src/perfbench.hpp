#pragma once
// Shared pieces of the repository benchmark: clocks, sample statistics
// with the tail-percentile rule, the metric sink, and the Stage interface
// every workload implements.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

/// FNV-1a over bytes; digests of generated inputs and output streams.
std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = 1469598103934665603ull);

// -- sample statistics --------------------------------------------------------

/// Nearest-rank quantile of an unsorted sample (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// The highest percentile a sample supports: p99 once there are at least
/// 1000 samples, otherwise the highest rank with at least ten samples
/// beyond it. `pct` is the percentile actually reported. Below 20 samples
/// no percentile at or above the median qualifies, and the maximum is
/// reported as pct 100.
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  std::size_t n = 0;
};
Tail tail(std::vector<double> v);

/// Interquartile range as a share of the median ("spread" in the output).
double rel_iqr(const std::vector<double>& v);

// -- metrics ------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered metric sink; the final JSON line prints it.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, Metric>& all() const { return values_; }

 private:
  std::map<std::string, Metric> values_;
};

// -- workloads ----------------------------------------------------------------

/// Operations attempted and failed (refused, shed, or failing an output
/// check) by one stage.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// One workload. main() constructs it and times setup(), runs warm_up()
/// once, then runs unit() repeatedly, interleaved with the other stages'
/// units so every stage samples the whole run. check() and the report
/// functions run outside every timed section.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const char* name() const = 0;
  /// Builds fabrics, tables, inputs and sessions from the seed.
  virtual void setup(std::uint64_t seed) = 0;
  /// Canonical text of the generated inputs (determinism tests hash it).
  virtual std::string inputs_text() const = 0;
  /// One untimed unit of work: caches filled, lazy set-up done.
  virtual void warm_up() = 0;
  /// One timed unit of work; the stage keeps its own samples.
  virtual void unit() = 0;
  /// Units every untimed run needs, so each statistic has its samples; a
  /// traced run does half of them, rounded up.
  virtual std::size_t min_units() const = 0;
  /// Output checks; every failure lands in `out`.
  virtual void check(Outcome& out) = 0;
  /// End-to-end metrics of this stage (untraced runs).
  virtual void report_e2e(Metrics& m) const = 0;
  /// Per-layer metrics of this stage (traced runs).
  virtual void report_layers(Metrics& m) const = 0;
};

std::unique_ptr<Stage> make_fig_throughput();
std::unique_ptr<Stage> make_convert_apl();
std::unique_ptr<Stage> make_svc_stream();
std::unique_ptr<Stage> make_packet_des();

// Layer-boundary spans are plain OBS_SPANs opened by the stages around
// each call into a library layer: inert unless a traced run started obs
// tracing, and named "<layer>.<call>" so selftime.cpp can attribute them.

}  // namespace perfbench
