#pragma once
// Machine-readable run manifests.
//
// A manifest is one JSON document describing a run: what was executed
// (argv, program name), how (seed, threads, custom fields), in what
// environment (git describe, hardware threads), how long it took, and the
// full metrics snapshot at write time. Benches emit one next to their CSV
// output when --metrics-json=PATH is passed.
//
// Schema (top-level keys, all always present):
//
//   schema         "flattree.run.v1"
//   name           program name (argv[0] basename)
//   argv           full command line, as a string array
//   git            `git describe --always --dirty` or "unknown"
//   hardware_threads  std::thread::hardware_concurrency()
//   wall_time_s    RunSession construction -> finish()
//   fields         caller-provided key/values (seed, threads, epsilon, ...)
//   subsystems     instrumented subsystems with live metrics, name-sorted
//   metrics        {"counters": {...}, "gauges": {...}, "histograms": {...}}
//
// Histograms render as {"count","sum","min","max","buckets":[{"le",...,
// "count"},...]} with the final bucket's "le" = "inf".

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace flattree::obs {

/// `git describe --always --dirty` of the working directory, or "unknown"
/// when git/repo are unavailable. Runs a subprocess; call once per run.
std::string git_describe();

/// Collects run description over the program's lifetime, then writes the
/// manifest. Construct after flag parsing; finish() (or destruction) stamps
/// the wall time, snapshots metrics, and writes the file when a path was
/// given. finish() is idempotent.
class RunSession {
 public:
  /// `argv` is copied; `metrics_path`/`trace_path` may be empty (that part
  /// of the output is skipped).
  RunSession(int argc, const char* const* argv, std::string metrics_path,
             std::string trace_path);
  ~RunSession();

  RunSession(const RunSession&) = delete;
  RunSession& operator=(const RunSession&) = delete;

  /// Caller-provided manifest fields (insertion order is preserved).
  void set_int(const std::string& key, std::int64_t value);
  void set_double(const std::string& key, double value);

  /// True when either output was requested (observability should be on).
  bool active() const { return !metrics_path_.empty() || !trace_path_.empty(); }

  /// Writes the manifest and/or trace, returning false if any requested
  /// file could not be written. Safe to call with no paths (no-op).
  bool finish();

  /// Renders the manifest JSON without touching the filesystem (testing).
  std::string manifest_json() const;

 private:
  struct Field {
    std::string key;
    std::string json_value;  ///< pre-rendered
  };

  std::vector<std::string> argv_;
  std::vector<Field> fields_;
  std::string metrics_path_;
  std::string trace_path_;
  std::uint64_t start_ns_ = 0;
  bool finished_ = false;
};

}  // namespace flattree::obs
