#pragma once
// The flat-tree convertible network (paper Section 2).
//
// A FlatTreeNetwork is the *physical* plant: fat-tree(k) equipment plus
// d*(m+n) converter switches per pod with fixed attachments (pod-core
// wiring pattern, inter-pod side wiring). Its *logical* topology is a
// function of the converter configurations; `materialize` produces the
// logical Topology for any valid assignment, and `assign_configs` derives
// the assignment for the paper's operating modes:
//
//   Clos         all converters `default`  -> exactly the fat-tree
//   GlobalRandom 4-port `local`, paired 6-port `side`/`cross` by row parity
//                -> approximated network-wide random graph (Figure 2c)
//   LocalRandom  4-port `local`, 6-port `default`
//                -> approximated per-pod random graphs (Figure 2d)
//
// Hybrid mode assigns a mode per pod (Section 3.4); 6-port pairs that
// straddle a zone boundary fall back to standalone configurations (see
// DESIGN.md).

#include <array>
#include <cstdint>
#include <vector>

#include "core/converter.hpp"
#include "core/pod.hpp"
#include "core/wiring.hpp"
#include "topo/fat_tree.hpp"

namespace flattree::core {

/// Operating mode of a pod (and, uniformly, of the whole network).
enum class Mode : std::uint8_t { Clos, GlobalRandom, LocalRandom };

const char* to_string(Mode mode);

struct FlatTreeConfig {
  std::uint32_t k = 4;  ///< fat-tree parameter; even, >= 4

  /// 6-port (m) and 4-port (n) converters per (edge, aggregation) pair.
  /// kProfiled uses the paper's profiled values m = round(k/8),
  /// n = round(2k/8) (Section 3.2).
  static constexpr std::uint32_t kProfiled = ~std::uint32_t{0};
  std::uint32_t m = kProfiled;
  std::uint32_t n = kProfiled;

  WiringPattern pattern = WiringPattern::Auto;
  PodChain chain = PodChain::Ring;

  /// Paper's profiled defaults, rounded to the closest integer.
  static std::uint32_t default_m(std::uint32_t k);
  static std::uint32_t default_n(std::uint32_t k);
  /// Same defaults expressed in core-group units (group = h/r): the
  /// paper's m = k/8, n = 2k/8 are group/4 and group/2 on a fat-tree.
  static std::uint32_t default_m_for_group(std::uint32_t group);
  static std::uint32_t default_n_for_group(std::uint32_t group);
};

/// One logical link contributed by a converter.
struct ConverterLink {
  NodeId a = graph::kInvalidNode;
  NodeId b = graph::kInvalidNode;
  topo::LinkOrigin origin = topo::LinkOrigin::PodCore;
};

/// Everything one converter contributes to the logical topology under one
/// configuration: the switch hosting its tapped server and 0-2 links.
struct ConverterWiring {
  NodeId host = graph::kInvalidNode;
  std::uint32_t link_count = 0;
  std::array<ConverterLink, 2> links{};
};

class FlatTreeNetwork {
 public:
  /// Validates and freezes the physical plant: converter attachments,
  /// pod-core core assignments, inter-pod pairings. Throws
  /// std::invalid_argument on bad parameters (odd k, m+n > k/2, ...).
  explicit FlatTreeNetwork(FlatTreeConfig config);

  /// Generic (possibly oversubscribed) Clos plant — the layouts the paper
  /// says flat-tree especially targets (Section 3.1). `m`/`n` may be
  /// FlatTreeConfig::kProfiled for group-proportional defaults.
  FlatTreeNetwork(const topo::ClosParams& params, std::uint32_t m, std::uint32_t n,
                  WiringPattern pattern = WiringPattern::Auto,
                  PodChain chain = PodChain::Ring);

  const FlatTreeConfig& config() const { return config_; }
  const topo::ClosParams& params() const { return params_; }
  const PodLayout& layout() const { return layout_; }
  /// The resolved wiring pattern (never Auto).
  WiringPattern pattern() const { return pattern_; }

  const std::vector<Converter>& converters() const { return converters_; }
  std::uint32_t converter_index(std::uint32_t pod, std::uint32_t slot) const;

  // -- switch / server id layout (identical to topo::FatTree) -------------
  NodeId edge_switch(std::uint32_t pod, std::uint32_t j) const;
  NodeId agg_switch(std::uint32_t pod, std::uint32_t i) const;
  NodeId core_switch(std::uint32_t c) const;
  ServerId server(std::uint32_t pod, std::uint32_t j, std::uint32_t s) const;

  // -- configuration -------------------------------------------------------
  /// Converter configuration realizing `pod_modes` (one Mode per pod).
  std::vector<ConverterConfig> assign_configs(const std::vector<Mode>& pod_modes) const;
  /// Uniform mode over all pods.
  std::vector<ConverterConfig> assign_configs(Mode mode) const;

  /// What converter `idx` contributes under `config` (which must be
  /// config_valid for it):
  ///   default     agg-core link, server on the edge;
  ///   local       edge-core link, server on the aggregation switch;
  ///   side/cross  the two inter-pod pair links, emitted from the
  ///               pair-canonical end only (none from its peer), server on
  ///               the core.
  /// The single source of converter wiring: materialize() emits exactly
  /// these links and hosts, and Controller diffs plans with it.
  ConverterWiring converter_wiring(std::uint32_t idx, ConverterConfig config) const;

  /// Materializes the logical topology for a validated assignment.
  /// The result satisfies Topology::validate() (port budgets, connected).
  topo::Topology materialize(const std::vector<ConverterConfig>& configs) const;

  /// Convenience: assign_configs + materialize.
  topo::Topology build(Mode mode) const;
  topo::Topology build(const std::vector<Mode>& pod_modes) const;

 private:
  void init();
  void build_converters();
  void pair_converters();

  FlatTreeConfig config_;
  topo::ClosParams params_;
  PodLayout layout_;
  WiringPattern pattern_ = WiringPattern::Pattern1;
  std::vector<Converter> converters_;
};

}  // namespace flattree::core
