#include "check/te_check.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "graph/bfs.hpp"

namespace flattree::check {

namespace {

/// Walk verdicts classified for code mapping (first failure per pair).
enum class WalkFault : std::uint8_t { None, Blackhole, Loop, HopLimit };

/// Per-destination memoized walk over positive-weight rules. Structural
/// rule hygiene is checked separately, so this checker only classifies the
/// walk-level faults. Progress violations do not end the walk (a loop
/// still has to be told apart); they go straight into the report.
class WalkChecker {
 public:
  WalkChecker(const topo::Topology& topo, const te::WeightedFib& fib, graph::NodeId dst,
              const std::vector<std::uint32_t>& dist, Report& report)
      : topo_(topo), fib_(fib), dst_(dst), dist_(dist), report_(report),
        state_(topo.switch_count(), State::Unknown), depth_(topo.switch_count(), 0) {}

  WalkFault check(graph::NodeId src, graph::NodeId& at_fault) {
    return visit(src, at_fault);
  }

 private:
  enum class State : std::uint8_t { Unknown, OnStack, Good };

  WalkFault visit(graph::NodeId u, graph::NodeId& at_fault) {
    if (u == dst_ || state_[u] == State::Good) return WalkFault::None;
    if (state_[u] == State::OnStack) {
      at_fault = u;
      return WalkFault::Loop;
    }
    const auto& hops = fib_.next_hops(u, dst_);
    std::uint64_t entry_weight = 0;
    for (const te::WeightedHop& hop : hops) entry_weight += hop.weight;
    if (entry_weight == 0) {
      at_fault = u;
      return WalkFault::Blackhole;
    }
    state_[u] = State::OnStack;
    std::uint32_t worst = 0;
    for (const te::WeightedHop& hop : hops) {
      if (hop.weight == 0) continue;  // flagged structurally, not a walk choice
      if (hop.link >= topo_.graph().link_count()) continue;  // flagged as bad_link
      graph::NodeId v = topo_.graph().link(hop.link).other(u);
      if (dist_[v] >= dist_[u]) {
        std::ostringstream os;
        os << "next hop " << u << " -> " << v << " (link " << hop.link << ") toward "
           << dst_ << " does not make progress (dist " << dist_[u] << " -> " << dist_[v]
           << ")";
        report_.add("te.wfib.progress", os.str());
      }
      WalkFault fault = visit(v, at_fault);
      if (fault != WalkFault::None) {
        state_[u] = State::Unknown;  // leave re-entrant state clean
        return fault;
      }
      worst = std::max(worst, (v == dst_ ? 0u : depth_[v]) + 1u);
    }
    if (worst > kFibHopLimit) {
      state_[u] = State::Unknown;
      at_fault = u;
      return WalkFault::HopLimit;
    }
    depth_[u] = worst;
    state_[u] = State::Good;
    return WalkFault::None;
  }

  const topo::Topology& topo_;
  const te::WeightedFib& fib_;
  graph::NodeId dst_;
  const std::vector<std::uint32_t>& dist_;
  Report& report_;
  std::vector<State> state_;
  std::vector<std::uint32_t> depth_;
};

}  // namespace

Report validate_weighted_fib(
    const topo::Topology& t, const te::WeightedFib& fib,
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& pairs) {
  count_run();
  Report report;
  const graph::Graph& g = t.graph();

  // -- structural rule hygiene over the whole table -------------------------
  report.note_check(3);
  for (graph::NodeId at = 0; at < fib.switch_count(); ++at) {
    for (graph::NodeId dst : fib.destinations(at)) {
      const auto& hops = fib.next_hops(at, dst);
      std::uint64_t entry_weight = 0;
      for (const te::WeightedHop& hop : hops) {
        entry_weight += hop.weight;
        if (hop.weight == 0) {
          std::ostringstream os;
          os << "zero-weight rule at switch " << at << " toward " << dst << " via link "
             << hop.link;
          report.add("te.wfib.zero_weight", os.str());
        }
        if (fib.is_equal_cost() && hop.weight > 1) {
          std::ostringstream os;
          os << "equal-cost rule at switch " << at << " toward " << dst << " via link "
             << hop.link << " has weight " << hop.weight << ", not 1";
          report.add("te.wfib.weight_sum", os.str());
        }
        bool incident = hop.link < g.link_count() &&
                        (g.link(hop.link).a == at || g.link(hop.link).b == at);
        if (!incident) {
          std::ostringstream os;
          os << "rule at switch " << at << " toward " << dst << " uses link " << hop.link
             << " which is unknown or not incident to " << at;
          report.add("te.wfib.bad_link", os.str());
        }
      }
      if (!fib.is_equal_cost() && !hops.empty() && entry_weight != fib.weight_budget()) {
        std::ostringstream os;
        os << "entry (" << at << " -> " << dst << ") weights sum to " << entry_weight
           << ", budget is " << fib.weight_budget();
        report.add("te.wfib.weight_sum", os.str());
      }
    }
  }

  // -- walk-level checks over the requested pairs ---------------------------
  std::unordered_map<graph::NodeId, std::vector<graph::NodeId>> by_dst;
  for (auto [src, dst] : pairs)
    if (src != dst) by_dst[dst].push_back(src);

  report.note_check(pairs.size());
  // Sorted destination order keeps the violation list deterministic.
  std::vector<graph::NodeId> dsts;
  dsts.reserve(by_dst.size());
  for (const auto& [dst, sources] : by_dst) dsts.push_back(dst);
  std::sort(dsts.begin(), dsts.end());

  for (graph::NodeId dst : dsts) {
    std::vector<std::uint32_t> dist = graph::bfs_distances(g, dst);
    WalkChecker checker(t, fib, dst, dist, report);
    bool dst_reported = false;
    for (graph::NodeId src : by_dst[dst]) {
      if (dist[src] == graph::kUnreachable) {
        std::ostringstream os;
        os << "pair (" << src << " -> " << dst << ") is disconnected in the topology";
        report.add("te.wfib.disconnected", os.str());
        continue;
      }
      if (dst_reported) continue;  // one walk fault per destination is enough
      graph::NodeId at_fault = src;
      switch (checker.check(src, at_fault)) {
        case WalkFault::None:
          break;
        case WalkFault::Blackhole: {
          std::ostringstream os;
          os << "blackhole: switch " << at_fault
             << " has no positive-weight route toward " << dst;
          report.add("te.wfib.blackhole", os.str());
          dst_reported = true;
          break;
        }
        case WalkFault::Loop: {
          std::ostringstream os;
          os << "forwarding loop through switch " << at_fault << " toward " << dst;
          report.add("te.wfib.loop", os.str());
          dst_reported = true;
          break;
        }
        case WalkFault::HopLimit: {
          std::ostringstream os;
          os << "walk from switch " << at_fault << " toward " << dst << " exceeds "
             << kFibHopLimit << " hops";
          report.add("te.wfib.hop_limit", os.str());
          dst_reported = true;
          break;
        }
      }
    }
  }
  return report;
}

}  // namespace flattree::check
