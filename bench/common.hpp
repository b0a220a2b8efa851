#pragma once
// Shared helpers for the figure-reproduction benches.
//
// Every bench prints the paper's series as an aligned table plus a CSV
// block (util::Table::print). Quick defaults finish in seconds; --full
// switches to the paper's parameter ranges.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "core/flat_tree.hpp"
#include "exec/parallel_for.hpp"
#include "graph/multi_bfs.hpp"
#include "mcf/garg_koenemann.hpp"
#include "obs/obs.hpp"
#include "topo/topology.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/cluster.hpp"
#include "workload/traffic.hpp"

namespace flattree::bench {

// -- self-checking (--selfcheck) --------------------------------------------
//
// With --selfcheck every topology a bench builds runs the src/check
// invariant battery and every max-concurrent-flow result is certified
// (capacity feasibility, flow conservation, primal support, FPTAS
// bracket). Violations print to stderr as they happen, bump the
// check.violations counter (visible in --metrics-json run manifests), and
// flip the process exit code to 1 via selfcheck_exit(). Without the flag
// none of this runs and bench output is byte-identical to before.

/// Process-wide switch; set from the --selfcheck flag via apply_selfcheck.
inline bool& selfcheck_enabled() {
  static bool on = false;
  return on;
}

/// Violations accumulated across every check this run (atomic: throughput
/// certificates run inside exec pool workers).
inline std::atomic<std::size_t>& selfcheck_violations() {
  static std::atomic<std::size_t> count{0};
  return count;
}

/// Registers the shared `--selfcheck` flag (every bench grows one).
inline void add_selfcheck_flag(util::CliParser& cli, bool* flag) {
  cli.add_bool("selfcheck", flag,
               "validate every topology and certify every solver result (exit 1 on "
               "any violation)");
}

/// Records a report: prints violations (single fwrite-backed fprintf per
/// report, safe from pool workers) and accumulates the count.
inline void selfcheck_record(const check::Report& report, const char* what) {
  if (report.ok()) return;
  selfcheck_violations().fetch_add(report.violations.size(), std::memory_order_relaxed);
  std::string text = report.to_string();
  std::fprintf(stderr, "selfcheck[%s]: %zu violation(s)\n%s\n", what,
               report.violations.size(), text.c_str());
}

/// Applies the --selfcheck flag. Besides flipping the process-wide switch,
/// this arms the batched-BFS audit hook: graph::MultiSourceBfs hands the
/// first distance row of every batch to check::certify_distances, so the
/// bit-parallel engine's output is certified on sampled sources during the
/// actual bench run (ft_graph itself cannot depend on ft_check — the hook
/// inverts the dependency from up here, where both layers are visible).
inline void apply_selfcheck(bool on) {
  selfcheck_enabled() = on;
  if (on) {
    graph::set_distance_audit_hook(
        [](const graph::Graph& g, graph::NodeId source,
           const std::vector<std::uint32_t>& dist) {
          selfcheck_record(check::certify_distances(g, source, dist), "bitbfs");
        });
  } else {
    graph::set_distance_audit_hook(nullptr);
  }
}

/// Validates a topology under --selfcheck (no-op otherwise).
inline void check_topology(const topo::Topology& t, const char* what,
                           const check::TopologyCheckOptions& options = {}) {
  if (!selfcheck_enabled()) return;
  selfcheck_record(check::validate(t, options), what);
}

/// Equipment-parity check between two builds under --selfcheck (no-op
/// otherwise). Conversions re-use the same hardware, so any two builds at
/// the same (k, oversubscription) must agree on the equipment inventory.
inline void check_parity(const topo::Topology& a, const topo::Topology& b,
                         const char* what, bool require_equal_links = true) {
  if (!selfcheck_enabled()) return;
  selfcheck_record(check::equipment_parity(a, b, require_equal_links), what);
}

/// Final verdict for main(): prints a summary and returns the exit code.
inline int selfcheck_exit() {
  if (!selfcheck_enabled()) return 0;
  std::size_t violations = selfcheck_violations().load();
  if (violations == 0) {
    std::fprintf(stderr, "selfcheck: OK (0 violations)\n");
    return 0;
  }
  std::fprintf(stderr, "selfcheck: FAILED (%zu violation(s))\n", violations);
  return 1;
}

/// Paths for the shared observability flags. Empty = that output disabled.
struct ObsFlags {
  std::string metrics_json;  ///< --metrics-json=PATH: run manifest
  std::string trace;         ///< --trace=PATH: JSON-lines span trace
};

/// Registers `--metrics-json` and `--trace` (every bench grows both).
inline void add_obs_flags(util::CliParser& cli, ObsFlags* flags) {
  cli.add_string("metrics-json", &flags->metrics_json,
                 "write a JSON run manifest (argv, seed, metrics) to this path");
  cli.add_string("trace", &flags->trace,
                 "write a JSON-lines span trace to this path");
}

/// Owns the observability side of a bench run. Construct right after flag
/// parsing; when either path was requested this enables metrics collection
/// (and tracing, if asked for) and writes the files at scope exit. With no
/// paths this is inert and the bench's stdout is byte-identical to a build
/// without the flags.
class ObsScope {
 public:
  ObsScope(const ObsFlags& flags, int argc, char** argv)
      : session_(argc, argv, flags.metrics_json, flags.trace) {
    if (session_.active()) {
      obs::set_enabled(true);
      if (!flags.trace.empty()) obs::start_tracing();
    }
  }

  /// Manifest fields (seed, threads, epsilon, ...); no-ops when inactive.
  void set_int(const std::string& key, std::int64_t value) {
    if (session_.active()) session_.set_int(key, value);
  }
  void set_double(const std::string& key, double value) {
    if (session_.active()) session_.set_double(key, value);
  }

  obs::RunSession& session() { return session_; }

 private:
  obs::RunSession session_;  ///< writes manifest + trace on destruction
};

// -- sizing flag checks -------------------------------------------------------
//
// --k, --kmax/--kstep, --seeds, --eps and the packet simulator's sizing
// and rate flags are checked before use, so a value out of range is
// refused here, with a message on stderr naming the flag, before any cast
// or solve: the bench then exits 2 with nothing on stdout.

/// The largest fat-tree parameter a bench accepts: eight times the largest
/// k any paper-scale sweep uses (bench_fig5_apl_global --full stops at 32).
inline constexpr std::int64_t kMaxK = 256;

/// True when `k` is an even fat-tree parameter in [4, kMaxK]; otherwise
/// prints why, prefixed with `bench`, and returns false.
inline bool k_in_range(const char* bench, std::int64_t k) {
  if (k >= 4 && k <= kMaxK && k % 2 == 0) return true;
  std::fprintf(stderr, "%s: --k must be an even integer in [4, %lld], got %lld\n", bench,
               static_cast<long long>(kMaxK), static_cast<long long>(k));
  return false;
}

/// True when the k_values sweep 4, 4 + kstep, ... <= kmax visits only
/// values k_in_range accepts and ends: kmax in [4, kMaxK] and kstep a
/// positive even number. Otherwise prints why, prefixed with `bench`, and
/// returns false (an odd k crashes the builders; a step of 0 never ends).
inline bool k_sweep_in_range(const char* bench, std::int64_t kmax, std::int64_t kstep) {
  if (kmax < 4 || kmax > kMaxK) {
    std::fprintf(stderr, "%s: --kmax must lie in [4, %lld], got %lld\n", bench,
                 static_cast<long long>(kMaxK), static_cast<long long>(kmax));
    return false;
  }
  if (kstep < 2 || kstep % 2 != 0) {
    std::fprintf(stderr, "%s: --kstep must be a positive even integer, got %lld\n", bench,
                 static_cast<long long>(kstep));
    return false;
  }
  return true;
}

/// True when `eps` lies in the open interval (0, 1) that Garg-Koenemann
/// accepts; otherwise prints why, prefixed with `bench`, and returns false.
inline bool eps_in_range(const char* bench, double eps) {
  // Written so that NaN fails both tests.
  if (eps > 0.0 && eps < 1.0) return true;
  std::fprintf(stderr, "%s: --eps must be in (0, 1), got %g\n", bench, eps);
  return false;
}

/// True when `seeds` lies in [1, 2^32 - 1]; otherwise prints why,
/// prefixed with `bench`, and returns false (an average over no draws is
/// 0/0, and a larger count would wrap in the uint32 cast).
inline bool seeds_in_range(const char* bench, std::int64_t seeds) {
  constexpr std::int64_t kMaxSeeds = std::numeric_limits<std::uint32_t>::max();
  if (seeds >= 1 && seeds <= kMaxSeeds) return true;
  std::fprintf(stderr, "%s: --seeds must lie in [1, %lld], got %lld\n", bench,
               static_cast<long long>(kMaxSeeds), static_cast<long long>(seeds));
  return false;
}

/// True when the integer flag `--flag` lies in [lo, hi]; otherwise prints
/// why, prefixed with `bench`, and returns false (a negative value would
/// wrap in the unsigned cast, a huge one wrap or exhaust memory).
inline bool int_in_range(const char* bench, const char* flag, std::int64_t value,
                         std::int64_t lo, std::int64_t hi) {
  if (value >= lo && value <= hi) return true;
  std::fprintf(stderr, "%s: --%s must lie in [%lld, %lld], got %lld\n", bench, flag,
               static_cast<long long>(lo), static_cast<long long>(hi),
               static_cast<long long>(value));
  return false;
}

/// True when `--cluster` lies in [2, 2^32 - 1]; otherwise prints why,
/// prefixed with `bench`, and returns false (a broadcast needs a sender
/// and a receiver, an all-to-all a pair, and a larger size would wrap in
/// the uint32 cast).
inline bool cluster_in_range(const char* bench, std::int64_t cluster) {
  return int_in_range(bench, "cluster", cluster, 2, std::numeric_limits<std::uint32_t>::max());
}

/// True when the double flag `--flag` is finite and positive, or finite
/// and non-negative when `zero_ok`; otherwise prints why, prefixed with
/// `bench`, and returns false.
inline bool finite_in_range(const char* bench, const char* flag, double value, bool zero_ok) {
  // Written so that NaN fails.
  if (value > 0.0 && value <= std::numeric_limits<double>::max()) return true;
  if (zero_ok && value == 0.0) return true;
  std::fprintf(stderr, "%s: --%s must be finite and %s, got %g\n", bench, flag,
               zero_ok ? "non-negative" : "positive", value);
  return false;
}

/// Packet-simulator sizing: the most packets per flow (--train) a DES
/// bench accepts. Every packet of a run is kept (40 bytes each), so a
/// longer train only exhausts memory.
inline constexpr std::int64_t kMaxTrain = std::int64_t{1} << 16;
/// The largest --queue-packets, --sources, --a2a or --ecn-threshold value.
inline constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

/// Registers the shared `--threads` flag (every bench grows one). 0 means
/// the exec default: FLATTREE_THREADS env var, else hardware concurrency.
inline void add_threads_flag(util::CliParser& cli, std::int64_t* threads) {
  cli.add_int("threads", threads,
              "execution threads (0 = FLATTREE_THREADS env / hardware concurrency)");
}

/// Installs the requested global pool size after flag parsing. All results
/// are bit-identical at any thread count (see DESIGN.md, Parallel
/// execution) — this knob only changes wall-clock time.
inline void apply_threads(std::int64_t threads) {
  exec::set_global_threads(threads > 0 ? static_cast<unsigned>(threads) : 0);
}

/// Throughput lambda for a server-level demand set on a topology
/// (switch-aggregated max concurrent flow, certified lower bound).
inline double throughput(const topo::Topology& topo,
                         const std::vector<mcf::ServerDemand>& demands, double epsilon,
                         double* upper = nullptr) {
  auto commodities = mcf::aggregate_to_switches(topo, demands);
  if (commodities.empty()) return 0.0;
  mcf::McfOptions opt;
  opt.epsilon = epsilon;
  // Certification needs the dual bound for the bracket check, so selfcheck
  // forces the upper bound on even when the caller does not want it.
  opt.compute_upper_bound = upper != nullptr || selfcheck_enabled();
  auto r = mcf::max_concurrent_flow(topo.graph(), commodities, opt);
  if (selfcheck_enabled()) {
    check::CertifyOptions copt;
    copt.epsilon = epsilon;
    selfcheck_record(check::certify(topo.graph(), commodities, r, copt), "mcf");
  }
  if (upper != nullptr) *upper = r.lambda_upper;
  return r.lambda_lower;
}

/// Cluster workload -> demands, averaged over `seeds` placements; returns
/// the mean lambda. Placements are independent, so the seed loop fans out
/// over the exec pool: each seed keeps its own Rng(seed_base + s) exactly
/// as the sequential loop did, and partial sums reduce in seed order, so
/// the mean is bit-identical at any thread count. (Each GK solve runs on
/// its seed's thread, which keeps the parallelism at the widest, cheapest
/// level.)
inline double mean_cluster_throughput(const topo::Topology& topo, std::uint32_t cluster_size,
                                      workload::Placement placement,
                                      workload::Pattern pattern,
                                      std::uint32_t servers_per_pod, double epsilon,
                                      std::uint64_t seed_base, std::uint32_t seeds) {
  double sum = exec::parallel_reduce(
      seeds, /*grain=*/1, 0.0,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        double part = 0.0;
        for (std::size_t s = begin; s < end; ++s) {
          util::Rng rng(seed_base + s);
          auto clusters = workload::make_clusters(
              static_cast<std::uint32_t>(topo.server_count()), cluster_size, placement,
              servers_per_pod, rng);
          auto demands = workload::cluster_traffic(clusters, pattern, rng);
          part += throughput(topo, demands, epsilon);
        }
        return part;
      },
      [](double acc, double part) { return acc + part; });
  return sum / static_cast<double>(seeds);
}

/// The k sweep used by the figures: 4..kmax step kstep (check the flags
/// with k_sweep_in_range first).
inline std::vector<std::uint32_t> k_values(std::int64_t kmax, std::int64_t kstep) {
  std::vector<std::uint32_t> ks;
  for (std::int64_t k = 4; k <= kmax; k += kstep) ks.push_back(static_cast<std::uint32_t>(k));
  return ks;
}

/// Flat-tree with the paper's profiled (m, n) = (k/8, 2k/8).
inline core::FlatTreeNetwork profiled_network(std::uint32_t k) {
  core::FlatTreeConfig cfg;
  cfg.k = k;
  return core::FlatTreeNetwork(cfg);
}

}  // namespace flattree::bench
