#pragma once
// Workload-mix objective for the conversion-plan search.
//
// A WorkloadMix declares the traffic the operator expects: a weighted
// list of components (broadcast, incast, all-to-all, permutation, skewed
// ML-training rings), each with a zone *affinity* — the conversion mode
// whose zone the controller would place it into (paper Section 3.4:
// large clusters into the global-random zone, small all-to-all into the
// local-random zone). Scoring a Candidate realizes that placement with
// *zone priority*: each component's cluster members are drawn from the
// servers homed in pods of the matching mode first, spilling into a
// shuffled draw from the rest of the fabric when the zone is too small.
// The declared workload never shrinks with the layout — cluster count
// and sizes are fixed by the mix, only membership moves — so objectives
// are comparable across candidates (a search cannot "win" by starving a
// component of eligible servers). All components are concatenated into
// one demand vector and the objective is the certified
// max-concurrent-flow lower bound of the joint instance — the guaranteed
// fraction of the declared mix every flow can ship simultaneously.
// Higher is better.
//
// Demand generation is a pure function of (mix, candidate, plant): every
// random choice comes from Rng::substream(mix.seed, component index), so
// the same mix scores identically at any thread count, call site, or
// evaluation order — the property the search's replayability rests on.
//
// Two scoring paths share the demand generator: score_candidate builds
// the topology and solves it (the path the annealer drives), while
// score_cold_certified also runs the full check::validate +
// check::certify battery (the path winners must survive before being
// reported). Both return the same Score for a candidate, bit for bit.

#include <cstdint>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "core/flat_tree.hpp"
#include "design/candidate.hpp"
#include "mcf/commodity.hpp"
#include "workload/cluster.hpp"
#include "workload/traffic.hpp"

namespace flattree::design {

/// Traffic shape of one mix component (paper Section 3.3 patterns plus
/// the permutation and skewed ML-training rings from the bench suite).
enum class PatternKind : std::uint8_t {
  Broadcast,   ///< one member sources a unit demand to every other member
  Incast,      ///< one member sinks a unit demand from every other member
  AllToAll,    ///< unit demand between every ordered member pair
  Permutation, ///< random cyclic permutation over the eligible servers
  MlTraining,  ///< per-cluster all-reduce rings, one hot cluster skewed
};

/// Token form of a PatternKind ("broadcast", "incast", "all-to-all",
/// "permutation", "ml-training").
const char* to_string(PatternKind kind);

/// Inverse of to_string(PatternKind); throws std::runtime_error on an
/// unknown token.
PatternKind parse_pattern_kind(const std::string& token);

/// Zone affinity: which conversion mode's zone a component's clusters
/// are placed into (zone-priority, spilling into the rest of the fabric
/// when the zone is too small — see the file header). Any draws from the
/// whole fabric. Permutation components ignore affinity entirely (the
/// cycle always spans every server).
enum class Affinity : std::uint8_t { Global, Local, Clos, Any };

/// Token form of an Affinity ("global", "local", "clos", "any").
const char* to_string(Affinity affinity);

/// Inverse of to_string(Affinity); throws std::runtime_error on an
/// unknown token.
Affinity parse_affinity(const std::string& token);

/// One weighted component of the declared workload mix.
struct Component {
  PatternKind kind = PatternKind::AllToAll;
  Affinity affinity = Affinity::Any;
  std::uint32_t cluster = 16;  ///< cluster size (Permutation ignores it)
  /// Clusters to place; 0 = as many as fit the fabric. Fixed per mix so
  /// the demand count is layout-independent (Permutation ignores it).
  std::uint32_t count = 0;
  workload::Placement placement = workload::Placement::NoLocality;
  double weight = 1.0;  ///< demand scale relative to the other components
  double skew = 4.0;    ///< MlTraining hot-cluster multiplier (others ignore)
};

/// The declared workload mix a design search optimizes for.
struct WorkloadMix {
  std::vector<Component> components;
  std::uint64_t seed = 1;  ///< substream base for every random choice
  double epsilon = 0.2;    ///< FPTAS accuracy for the throughput solves

  /// The bench/svc default mix: a pod-spanning broadcast bound for the
  /// global zone, small all-to-all bound for the local zone, and a
  /// fabric-wide skewed ML-training component — the mixed workload of
  /// paper Section 3.4 that a hybrid layout should beat any uniform
  /// mode on.
  static WorkloadMix defaults();
};

/// Mix demands for a candidate layout on a flat-tree plant: per-component
/// affinity placement as described in the file header. Pure function of
/// its arguments.
std::vector<mcf::ServerDemand> mix_demands(const core::FlatTreeNetwork& net,
                                           const Candidate& candidate,
                                           const WorkloadMix& mix);

/// Mix demands for a fixed flat topology (e.g. the De Bruijn baseline):
/// every component draws from all `total_servers` servers (affinities
/// have no zones to bind to). `servers_per_pod` supplies the pod
/// granularity WeakLocality placement clusters against — pass the
/// competing plant's value so cluster shapes are comparable.
std::vector<mcf::ServerDemand> mix_demands_all(std::uint32_t total_servers,
                                               std::uint32_t servers_per_pod,
                                               const WorkloadMix& mix);

/// One scored candidate (or baseline).
struct Score {
  double objective = 0.0;     ///< certified-format concurrent-flow lower bound
  double lambda_upper = 0.0;  ///< LP-duality upper bound of the same solve
  double apl = 0.0;           ///< server-weighted average path length (hops)
  std::uint64_t demands = 0;  ///< server-level demand count of the mix
};

/// The walk's scorer: builds the candidate's topology, takes its APL and
/// solves the mix once, without the check battery. The Score equals
/// score_cold_certified's for the same candidate; the search re-scores
/// its winner through that function to run the battery.
Score score_candidate(const core::FlatTreeNetwork& net, const Candidate& candidate,
                      const WorkloadMix& mix);

/// Cold scoring of a fixed topology against explicit demands: fresh
/// check::validate battery, cold solve, full check::certify. Violations
/// merge into `report` when provided.
Score score_topology_cold(const topo::Topology& t,
                          const std::vector<mcf::ServerDemand>& demands,
                          double epsilon, check::Report* report = nullptr);

/// Cold certified score of a candidate layout: materializes the topology
/// from scratch and delegates to score_topology_cold with the mix's
/// demands. This is the number the search reports for winners.
Score score_cold_certified(const core::FlatTreeNetwork& net,
                           const Candidate& candidate, const WorkloadMix& mix,
                           check::Report* report = nullptr);

}  // namespace flattree::design
