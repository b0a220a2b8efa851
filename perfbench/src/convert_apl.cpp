// convert-apl: the operator's conversion walk and failure recovery at large
// k, each step followed by the paper's Figure 5/6 metric (server APL).
//
// Per k, one cycle walks Clos -> global RG -> local RG -> hybrid zones ->
// Clos through core::Controller::plan/apply, and from the global mode
// applies two fixed failure sets through core::plan_recovery. After every
// step core materializes the fabric and topo::server_apl computes APL on
// it (bit-parallel BFS in graph). GK does no work here. The seed draws the
// hybrid zone layout and the failed switches.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "check/distances.hpp"
#include "core/controller.hpp"
#include "core/recovery.hpp"
#include "graph/multi_bfs.hpp"
#include "perfbench.hpp"
#include "topo/apl.hpp"
#include "topo/fat_tree.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace flattree;

constexpr std::uint32_t kConvertK[] = {32, 64};
constexpr std::size_t kCertifiedSources = 4;  // sampled per materialized fabric

/// "k<k>/<what>": names a step in failure messages and matches it across
/// cycles.
std::string step_label(std::uint32_t k, const std::string& what) {
  std::string label = "k";
  label += std::to_string(k);
  label += '/';
  label += what;
  return label;
}

struct Fabric {
  std::uint32_t k = 0;
  std::unique_ptr<core::Controller> ctl;
  topo::Topology fat_tree;  ///< reference: Clos mode must match it exactly
  std::vector<core::Mode> hybrid;
  std::vector<core::FailureSet> failures;
};

struct Step {
  std::string label;
  topo::Topology topo;  ///< what the APL was computed on (last cycle)
  double apl = 0.0;
  double first_apl = -1.0;
  bool repeat_ok = true;
};

class ConvertApl final : public Stage {
 public:
  const char* name() const override { return "convert-apl"; }

  void setup(std::uint64_t seed) override {
    for (std::uint32_t k : kConvertK) {
      Fabric f;
      f.k = k;
      {
        OBS_SPAN("core.controller");
        f.ctl = std::make_unique<core::Controller>(core::FlatTreeConfig{k});
      }
      {
        OBS_SPAN("topo.build");
        f.fat_tree = topo::build_fat_tree(k).topo;
      }
      const core::FlatTreeNetwork& net = f.ctl->network();
      const std::uint32_t pods = net.params().pods();
      util::Rng rng = util::Rng::substream(seed, 3000 + k);
      // Hybrid zones: a random half of the pods global, the rest local.
      f.hybrid.assign(pods, core::Mode::LocalRandom);
      std::fill(f.hybrid.begin(), f.hybrid.begin() + pods / 2, core::Mode::GlobalRandom);
      rng.shuffle(f.hybrid);
      const std::uint32_t cores = net.params().cores();
      const std::uint32_t aggs = net.params().aggs_per_pod();
      core::FailureSet a, b;
      a.failed_switches = {net.core_switch(static_cast<std::uint32_t>(rng.index(cores))),
                           net.core_switch(static_cast<std::uint32_t>(rng.index(cores))),
                           net.agg_switch(static_cast<std::uint32_t>(rng.index(pods)),
                                          static_cast<std::uint32_t>(rng.index(aggs)))};
      for (int i = 0; i < 3; ++i)
        b.failed_switches.push_back(
            net.core_switch(static_cast<std::uint32_t>(rng.index(cores))));
      f.failures = {a, b};
      fabrics_.push_back(std::move(f));
    }
  }

  std::string inputs_text() const override {
    std::ostringstream os;
    for (const Fabric& f : fabrics_) {
      os << "k " << f.k << " hybrid";
      for (core::Mode m : f.hybrid) os << ' ' << core::to_string(m);
      os << '\n';
      for (const core::FailureSet& fs : f.failures) {
        os << "failures";
        for (auto s : fs.failed_switches) os << ' ' << s;
        os << '\n';
      }
    }
    return os.str();
  }

  void warm_up() override { cycle(false); }
  void unit() override { cycle(true); }
  std::size_t min_units() const override { return 2; }

  void check(Outcome& out) override {
    OBS_SPAN("check.distances");
    std::size_t step_i = 0;
    for (const Step& s : steps_) {
      ++out.attempted;
      if (!s.repeat_ok) out.fail(s.label + ": APL changed between cycles");
      if (!std::isfinite(s.apl) || s.apl <= 0.0) out.fail(s.label + ": no finite APL");
      // Sampled sources of the bit-parallel engine, certified against the
      // fabric the APL ran on.
      const graph::Graph& g = s.topo.graph();
      graph::MultiSourceBfs bfs(g);
      util::Rng rng = util::Rng::substream(step_i++, 77);
      graph::NodeId sources[kCertifiedSources];
      for (auto& src : sources) src = static_cast<graph::NodeId>(rng.index(g.node_count()));
      bfs.run(sources, kCertifiedSources);
      for (std::size_t i = 0; i < kCertifiedSources; ++i) {
        auto row = bfs.distances(i);
        check::Report r = check::certify_distances(
            g, sources[i], std::vector<std::uint32_t>(row.begin(), row.end()));
        if (!r.ok()) out.fail(s.label + ": " + r.to_string());
      }
    }
    // The Clos step of every walk must reproduce the fat-tree exactly.
    for (const Fabric& f : fabrics_) {
      ++out.attempted;
      const double ref = topo::server_apl(f.fat_tree).average;
      const std::string label = step_label(f.k, "clos");
      auto it = std::find_if(steps_.begin(), steps_.end(),
                             [&](const Step& s) { return s.label == label; });
      if (it == steps_.end() || it->apl != ref)
        out.fail(label + ": Clos-mode APL differs from the fat-tree's");
    }
  }

  void report_e2e(Metrics& m) const override {
    m.set("apl_evals_per_s", median(cycle_rates_), "1/s");
    std::printf("  convert-apl: %zu steps per cycle, %zu cycles, spread %.3f\n",
                steps_.size(), cycle_rates_.size(), rel_iqr(cycle_rates_));
  }

  void report_layers(Metrics&) const override {}

 private:
  /// One walk per k.
  void cycle(bool timed) {
    const auto c0 = Clock::now();
    std::size_t step = 0;
    for (Fabric& f : fabrics_) walk(f, step);
    if (timed) cycle_rates_.push_back(static_cast<double>(step) / seconds_since(c0));
  }

  void record(std::size_t& step, std::string label, topo::Topology topo, double apl) {
    if (step == steps_.size()) steps_.push_back(Step{std::move(label), {}, 0.0, -1.0, true});
    Step& s = steps_[step++];
    s.topo = std::move(topo);
    s.apl = apl;
    if (s.first_apl < 0.0) s.first_apl = apl;
    else if (s.first_apl != apl) s.repeat_ok = false;
  }

  void convert(Fabric& f, const std::vector<core::Mode>& target, const char* what,
               std::size_t& step) {
    {
      OBS_SPAN("core.plan");  // the operator previews the plan; apply() re-plans
      f.ctl->plan(target);
    }
    {
      OBS_SPAN("core.apply");
      f.ctl->apply(target);
    }
    topo::Topology t = materialize(f, f.ctl->current_configs());
    double apl;
    {
      OBS_SPAN("topo.server_apl");
      apl = topo::server_apl(t).average;
    }
    record(step, step_label(f.k, what), std::move(t), apl);
  }

  static topo::Topology materialize(const Fabric& f,
                                    const std::vector<core::ConverterConfig>& configs) {
    OBS_SPAN("core.materialize");
    return f.ctl->network().materialize(configs);
  }

  void recover(Fabric& f, std::size_t which, std::size_t& step) {
    const core::FailureSet& fs = f.failures[which];
    core::RecoveryPlan rp;
    {
      OBS_SPAN("core.recovery");
      rp = core::plan_recovery(f.ctl->network(), f.ctl->current_configs(), fs);
    }
    topo::Topology t = materialize(f, rp.configs);
    core::DegradedTopology d;
    {
      OBS_SPAN("core.apply_failures");
      d = core::apply_failures(t, fs);
    }
    std::vector<char> stranded(d.topo.server_count(), 0);
    for (auto s : d.stranded_servers) stranded[s] = 1;
    std::vector<topo::ServerId> alive;
    alive.reserve(d.topo.server_count());
    for (topo::ServerId s = 0; s < d.topo.server_count(); ++s)
      if (!stranded[s]) alive.push_back(s);
    double apl;
    {
      OBS_SPAN("topo.server_apl");
      apl = topo::server_apl_subset(d.topo, alive).average;
    }
    record(step, step_label(f.k, "recover" + std::to_string(which)),
           std::move(d.topo), apl);
  }

  void walk(Fabric& f, std::size_t& step) {
    const std::uint32_t pods = f.ctl->network().params().pods();
    convert(f, std::vector<core::Mode>(pods, core::Mode::GlobalRandom), "global", step);
    for (std::size_t i = 0; i < f.failures.size(); ++i) recover(f, i, step);
    convert(f, std::vector<core::Mode>(pods, core::Mode::LocalRandom), "local", step);
    convert(f, f.hybrid, "hybrid", step);
    convert(f, std::vector<core::Mode>(pods, core::Mode::Clos), "clos", step);
  }

  std::vector<Fabric> fabrics_;
  std::vector<Step> steps_;
  std::vector<double> cycle_rates_;
};

}  // namespace

std::unique_ptr<Stage> make_convert_apl() { return std::make_unique<ConvertApl>(); }

}  // namespace perfbench
