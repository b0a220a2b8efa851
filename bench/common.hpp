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
#include <optional>
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

// -- flag ranges ---------------------------------------------------------------
//
// Every numeric flag declares its range at registration, and
// util::CliParser refuses a value outside it with exit 2 and a stderr line
// naming the flag, before any cast, allocation or solve. These are the
// ranges the benches share.

/// The largest fat-tree parameter a bench accepts: eight times the largest
/// k any paper-scale sweep uses (bench_fig5_apl_global --full stops at 32).
inline constexpr std::int64_t kMaxK = 256;
/// The largest value of a count that is cast to uint32.
inline constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
/// The bound of a flag that has none beyond its int64 type.
inline constexpr std::int64_t kMaxI64 = std::numeric_limits<std::int64_t>::max();

/// --k: an even fat-tree parameter (an odd one crashes the builders).
inline constexpr util::IntRange kK{4, kMaxK, 2};
/// --kmax and --kstep: the sweep 4, 4 + kstep, ... <= kmax visits only
/// even k and ends.
inline constexpr util::IntRange kKmax{4, kMaxK};
inline constexpr util::IntRange kKstep{2, kMaxK, 2};
/// --seeds: draws to average (an average over none is 0/0).
inline constexpr util::IntRange kSeeds{1, kMaxU32};
/// --seed: a base RNG seed.
inline constexpr util::IntRange kRngSeed{0, kMaxI64};
/// --cluster: a broadcast needs a sender and a receiver, an all-to-all a
/// pair.
inline constexpr util::IntRange kCluster{2, kMaxU32};
/// --eps: the open interval Garg-Koenemann accepts.
inline constexpr util::DoubleRange kEps = util::DoubleRange::open(0.0, 1.0);
/// --train: packets per flow of a DES bench. Every packet of a run is kept
/// (40 bytes each), so a longer train only exhausts memory.
inline constexpr util::IntRange kTrain{1, std::int64_t{1} << 16};

// -- shared flags ----------------------------------------------------------------

/// The four flags every bench shares, registered and applied in one place:
/// --threads (the pool size; results are bit-identical at any count, see
/// DESIGN.md, Parallel execution), --selfcheck, and the observability
/// outputs --metrics-json (run manifest) and --trace (JSON-lines spans).
///
/// Construct in place of cli.parse(): this registers the four flags, parses
/// argv and, when parsing succeeds, installs the pool, applies --selfcheck
/// and opens the run session, which writes its files when this object goes
/// out of scope. With neither path given the session is inert and stdout
/// is byte-identical to a run without the flags.
class Run {
 public:
  Run(util::CliParser& cli, int argc, char** argv) {
    std::int64_t threads = 0;
    std::string metrics_json, trace;
    cli.add_int("threads", &threads, {0, exec::kMaxThreads},
                "execution threads (0 = FLATTREE_THREADS env / hardware concurrency)");
    cli.add_bool("selfcheck", &selfcheck_,
                 "validate every topology and certify every solver result (exit 1 on "
                 "any violation)");
    cli.add_string("metrics-json", &metrics_json,
                   "write a JSON run manifest (argv, seed, metrics) to this path");
    cli.add_string("trace", &trace, "write a JSON-lines span trace to this path");
    parsed_ = cli.parse(argc, argv);
    if (!parsed_) return;
    exec::set_global_threads(static_cast<unsigned>(threads));
    apply_selfcheck(selfcheck_);
    session_.emplace(argc, argv, metrics_json, trace);
    if (session_->active()) {
      obs::set_enabled(true);
      if (!trace.empty()) obs::start_tracing();
    }
    set_int("threads", threads);
  }

  /// False after a parse error or --help: main returns cli.exit_code().
  bool parsed() const { return parsed_; }
  bool selfcheck() const { return selfcheck_; }

  /// Manifest fields (seed, eps, ...); no-ops when the session is inert.
  void set_int(const std::string& key, std::int64_t value) {
    if (session_->active()) session_->set_int(key, value);
  }
  void set_double(const std::string& key, double value) {
    if (session_->active()) session_->set_double(key, value);
  }

 private:
  bool parsed_ = false;
  bool selfcheck_ = false;
  std::optional<obs::RunSession> session_;  ///< writes manifest + trace on destruction
};

/// Plant-dependent --cluster check: true when a cluster of `cluster`
/// servers fits the plant's `servers`; otherwise prints why, prefixed with
/// `bench`, and returns false (a cluster larger than the plant places no
/// traffic at all).
inline bool cluster_fits(const char* bench, std::int64_t cluster, std::uint64_t servers) {
  if (static_cast<std::uint64_t>(cluster) <= servers) return true;
  std::fprintf(stderr, "%s: --cluster %lld exceeds the plant's %llu servers\n", bench,
               static_cast<long long>(cluster), static_cast<unsigned long long>(servers));
  return false;
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

/// The k sweep used by the figures: 4..kmax step kstep (kKmax and kKstep
/// values).
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
