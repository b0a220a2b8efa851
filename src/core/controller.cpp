#include "core/controller.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flattree::core {

namespace {

obs::Counter c_plans("core.controller.plans");
obs::Counter c_applies("core.controller.applies");
obs::Counter c_steps("core.controller.conversion_steps");
obs::Counter c_links_added("core.controller.links_added");
obs::Counter c_links_removed("core.controller.links_removed");
obs::Counter c_servers_moved("core.controller.servers_moved");

using LinkKey = std::pair<topo::NodeId, topo::NodeId>;  ///< (lo, hi) endpoints

/// Sorts `keys` by (lo, hi) with two stable counting passes over switch
/// ids: O(keys + switches), where std::sort was most of the diff's time.
void sort_link_keys(std::vector<LinkKey>& keys, std::size_t switches) {
  std::vector<LinkKey> out(keys.size());
  std::vector<std::size_t> slot(switches + 1);
  for (bool by_lo : {false, true}) {
    auto digit = [by_lo](const LinkKey& k) { return by_lo ? k.first : k.second; };
    std::fill(slot.begin(), slot.end(), 0);
    for (const LinkKey& k : keys) ++slot[digit(k) + 1];
    std::partial_sum(slot.begin(), slot.end(), slot.begin());
    for (const LinkKey& k : keys) out[slot[digit(k)]++] = k;
    keys.swap(out);
  }
}

}  // namespace

Controller::Controller(FlatTreeConfig config) : Controller(FlatTreeNetwork(config)) {}

Controller::Controller(FlatTreeNetwork net)
    : net_(std::move(net)),
      configs_(net_.assign_configs(Mode::Clos)),
      pod_modes_(net_.params().pods(), Mode::Clos) {}

std::vector<ReconfigStep> Controller::steps_between(const std::vector<ConverterConfig>& from,
                                                   const std::vector<ConverterConfig>& to) {
  std::vector<ReconfigStep> steps;
  for (std::uint32_t i = 0; i < from.size(); ++i)
    if (from[i] != to[i]) steps.push_back({i, from[i], to[i]});
  return steps;
}

ReconfigPlan Controller::diff(const std::vector<ConverterConfig>& from,
                              const std::vector<ConverterConfig>& to) const {
  OBS_SPAN("core.reconfig.diff");
  ReconfigPlan plan;
  plan.steps = steps_between(from, to);
  if (plan.steps.empty()) return plan;

  // Both states are materialized only for their checks (assignment
  // validity, Topology::validate's port budgets and connectivity): a live
  // state left behind by a ResilientController call that threw need not
  // materialize, and the plan must reject it as before.
  net_.materialize(from);
  net_.materialize(to);

  // Only changed converters rewire, so the link multiset difference of the
  // two fabrics is the difference of the changed converters' links.
  std::vector<LinkKey> before, after;
  auto gather = [](const ConverterWiring& w, std::vector<LinkKey>& keys) {
    for (std::uint32_t l = 0; l < w.link_count; ++l)
      keys.emplace_back(std::minmax(w.links[l].a, w.links[l].b));
  };
  for (const ReconfigStep& step : plan.steps) {
    ConverterWiring old_w = net_.converter_wiring(step.converter, step.from);
    ConverterWiring new_w = net_.converter_wiring(step.converter, step.to);
    gather(old_w, before);
    gather(new_w, after);
    if (old_w.host != new_w.host) ++plan.servers_moved;
  }
  sort_link_keys(before, net_.params().total_switches());
  sort_link_keys(after, net_.params().total_switches());
  std::vector<LinkKey> only;
  std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                      std::back_inserter(only));
  plan.links_removed = only.size();
  only.clear();
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(only));
  plan.links_added = only.size();
  return plan;
}

ReconfigPlan Controller::plan(const std::vector<Mode>& target) const {
  c_plans.inc();
  return diff(configs_, net_.assign_configs(target));
}

ReconfigPlan Controller::plan(Mode target) const {
  return plan(std::vector<Mode>(net_.params().pods(), target));
}

ReconfigPlan Controller::apply(const std::vector<Mode>& target) {
  c_applies.inc();
  auto next = net_.assign_configs(target);
  ReconfigPlan executed = diff(configs_, next);
  c_steps.add(executed.steps.size());
  c_links_added.add(executed.links_added);
  c_links_removed.add(executed.links_removed);
  c_servers_moved.add(executed.servers_moved);
  configs_ = std::move(next);
  pod_modes_ = target;
  return executed;
}

ReconfigPlan Controller::apply(Mode target) {
  return apply(std::vector<Mode>(net_.params().pods(), target));
}

}  // namespace flattree::core
