#pragma once
// Forwarding tables (FIB) — the paper's SDN story made concrete (Section
// 2.6: flat-tree topologies are known in advance, so routes can be
// precomputed and installed via SDN instead of learned).
//
// The one table type for both routing schemes. WCMP [Zhou et al.,
// EuroSys'14] attaches an integer weight to each next-hop rule so the
// split tracks downstream capacity or a solver's flow assignment; ECMP is
// the special case where every weight is 1. A WeightedFib stores, per
// (switch, destination) entry, a list of (link, weight) rules; select()
// hashes a flow id onto the entry's weight line deterministically, so a
// uniform flow-id sweep hits each next hop proportionally to its weight.
// On an equal-cost table that walk returns hops[hash % n], the classic
// ECMP choice.
//
// Storage is flat: a dense switches x switches slot index (4 B a pair,
// 26 KB at k=8 and 410 KB at k=16) points into one entry array, and each
// entry caches its weight sum, so a lookup is two array reads and select()
// does no hashing and no sum loop. Destinations are switch ids, like the
// switch a rule sits at.
//
// Weighted tables (compiled by te::compile_wcmp_*) carry a weight budget
// every entry's weights sum to; equal-cost tables (te::compile_fib, or
// WeightedFib::equal_cost) carry none and hold weight-1 rules. Both are
// model-checked by check::validate_weighted_fib (check/te_check.hpp).
// add_route() deliberately accepts any weight — including zero — so the
// checker can be exercised against corrupted tables; the compilers never
// emit zero-weight rules.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace flattree::te {

using graph::NodeId;

/// Per-entry weight sum of every weighted table (the hardware WCMP table
/// resolution the compilers quantize to).
inline constexpr std::uint32_t kWeightBudget = 64;

/// One weighted forwarding rule: take `link` with probability
/// weight / (entry weight sum).
struct WeightedHop {
  graph::LinkId link = 0;
  std::uint32_t weight = 0;
};

/// Per-switch forwarding table: destination -> weighted next-hop rules.
class WeightedFib {
 public:
  /// A weighted table: the compilers quantize every entry to
  /// kWeightBudget, and validators check the sum.
  explicit WeightedFib(std::size_t switches);

  /// An equal-cost (ECMP) table: no weight budget, every rule at weight 1.
  static WeightedFib equal_cost(std::size_t switches);

  /// Adds (or tops up) a rule at `at` toward `dst` via `link`. Weights
  /// accumulate on repeated calls for the same (at, dst, link). Zero
  /// weights are stored verbatim — validators flag them; compilers prune
  /// them before installation. Throws std::out_of_range when `at` or
  /// `dst` is not a switch of the table.
  void add_route(NodeId at, NodeId dst, graph::LinkId link, std::uint32_t weight);

  /// Rules at `at` toward `dst` in installation order (empty if none).
  /// Throws std::out_of_range when `at` is not a switch of the table.
  const std::vector<WeightedHop>& next_hops(NodeId at, NodeId dst) const;

  /// Deterministic weighted per-flow choice: hashes (at, dst, flow_id)
  /// onto [0, entry weight sum) and walks the rule list. Zero-weight rules
  /// are never selected. Throws std::runtime_error when no rule with
  /// positive weight is installed.
  graph::LinkId select(NodeId at, NodeId dst, std::uint64_t flow_id) const;

  /// The per-entry weight sum compilers target (kWeightBudget); 0 on an
  /// equal-cost table.
  std::uint32_t weight_budget() const { return weight_budget_; }
  /// True for tables built by equal_cost() (weight budget 0).
  bool is_equal_cost() const { return weight_budget_ == 0; }

  /// Destinations with at least one rule at `at`, ascending (validators
  /// iterate the table deterministically through this).
  std::vector<NodeId> destinations(NodeId at) const;

  std::size_t switch_count() const { return switches_; }
  /// Total number of (switch, destination, link) rules.
  std::size_t rule_count() const;
  /// Number of (switch, destination) entries.
  std::size_t entry_count() const { return entries_.size(); }
  /// Sum of all rule weights across the table.
  std::uint64_t total_weight() const;

 private:
  struct Entry {
    std::vector<WeightedHop> hops;
    std::uint64_t weight_sum = 0;  ///< sum of hops' weights
  };
  static constexpr std::uint32_t kNoEntry = ~std::uint32_t{0};

  /// Slot-index row of `at` (bounds-checked).
  const std::uint32_t* row(NodeId at) const;

  std::size_t switches_;
  std::vector<std::uint32_t> slot_;  ///< at * switches_ + dst -> entries_ index
  std::vector<Entry> entries_;
  std::uint32_t weight_budget_;
  static const std::vector<WeightedHop> kEmpty;
};

}  // namespace flattree::te
