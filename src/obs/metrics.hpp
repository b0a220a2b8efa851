#pragma once
// Metrics registry: counters, gauges, and fixed-bucket histograms.
//
// Design goals (see DESIGN.md, Observability):
//
//   * Near-zero cost when disabled. Every recording call starts with one
//     relaxed atomic load; when observability is off (the default) nothing
//     else happens, so instrumented kernels pay a predictable branch.
//   * No perturbation of results. Metrics only ever write into obs-owned
//     storage; instrumented code produces bit-identical outputs with
//     observability on or off, at any thread count.
//   * Deterministic totals under parallelism. Recording goes to a
//     thread-local shard; shards merge into the global store under a mutex
//     at scope exit (end of every exec pool job, thread exit, or snapshot).
//     Counter and bucket values are unsigned integers, whose sums are
//     independent of merge order, so a snapshot taken after a parallel
//     region is exactly the same at any thread count. The only
//     order-sensitive quantity is a histogram's floating-point `sum`
//     (documented caveat; count/buckets/min/max stay exact).
//
// Handles are cheap value types around a registry id; instrumented code
// declares them once per translation unit:
//
//   static obs::Counter c_phases("mcf.gk.phases");
//   ...
//   c_phases.inc();
//
// Names are dotted paths; the first segment is the subsystem ("graph",
// "mcf", "exec", ...), which run manifests use to report instrumented
// subsystem coverage. Registering the same name twice returns the same
// metric (histograms additionally require identical bounds).

#include <cstdint>
#include <string>
#include <vector>

namespace flattree::obs {

/// Global observability switch; disabled by default. Flip before the
/// instrumented region of interest (benches do it right after flag
/// parsing). Enabling is not retroactive: events recorded while disabled
/// are dropped, not buffered.
bool enabled();
void set_enabled(bool on);

using MetricId = std::uint32_t;

class Counter {
 public:
  /// Registers (or looks up) the counter `name`.
  explicit Counter(const std::string& name);
  void add(std::uint64_t n);
  void inc() { add(1); }
  MetricId id() const { return id_; }

 private:
  MetricId id_;
};

/// Point-in-time values (thread count, epsilon, ...). Writes go straight to
/// the global store under a mutex — keep gauges off per-item hot paths.
class Gauge {
 public:
  explicit Gauge(const std::string& name);
  void set(double v);

 private:
  MetricId id_;
};

class Histogram {
 public:
  /// `bounds` are ascending upper bucket edges; observations land in the
  /// first bucket whose bound is >= the value, with one implicit overflow
  /// bucket at the end (bounds.size() + 1 buckets total).
  Histogram(const std::string& name, std::vector<double> bounds);
  void observe(double v);

  /// `count` edges starting at `start`, each `factor` times the previous.
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t count);
  static std::vector<double> linear_bounds(double start, double step, std::size_t count);

 private:
  MetricId id_;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< name-sorted
  std::vector<std::pair<std::string, double>> gauges;           ///< name-sorted, set only
  std::vector<HistogramSnapshot> histograms;                    ///< name-sorted
  /// Distinct first name segments with at least one non-zero value.
  std::vector<std::string> subsystems() const;
};

/// Merges the calling thread's shard into the global store. Exec pool
/// threads call this automatically at the end of every job; other threads
/// flush on exit and on snapshot_metrics().
void flush_thread_metrics();

/// Flushes the calling thread, then copies the global store. Call after
/// parallel regions complete (worker shards are empty between pool jobs).
MetricsSnapshot snapshot_metrics();

/// Zeroes every value in the global store and the calling thread's shard
/// (registrations survive). Benches/tests use this to scope a measurement.
void reset_metrics();

}  // namespace flattree::obs
