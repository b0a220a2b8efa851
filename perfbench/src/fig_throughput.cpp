// fig-throughput: certified max-concurrent-flow solves in the shapes of the
// paper's Figures 7 and 8.
//
//   broadcast   1000-server clusters (one hot spot to every other member)
//               on flat-tree global-RG, fat-tree and Jellyfish: a few
//               sources with many targets per solve;
//   all-to-all  20-server clusters on flat-tree local-RG, fat-tree,
//               two-stage and Jellyfish: many sources with few targets.
//
// One round solves every instance of one shape, fanned out over the exec
// pool (the GK solver inside each instance then runs sequentially). The
// seed draws cluster placements, hot spots and random wirings; the k set is
// fixed so every seed asks for the same amount of work.

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "check/certify.hpp"
#include "core/flat_tree.hpp"
#include "exec/parallel_for.hpp"
#include "mcf/commodity.hpp"
#include "mcf/garg_koenemann.hpp"
#include "perfbench.hpp"
#include "topo/fat_tree.hpp"
#include "topo/random_graph.hpp"
#include "topo/two_stage.hpp"
#include "workload/cluster.hpp"
#include "workload/traffic.hpp"

namespace perfbench {
namespace {

using namespace flattree;

constexpr double kEpsilon = 0.12;  // the fig7/fig8 benches' default
constexpr std::uint32_t kBcastK[] = {16};
constexpr std::uint32_t kA2aK[] = {8};
constexpr std::uint32_t kBcastCluster = 1000;
constexpr std::uint32_t kA2aCluster = 20;

struct Instance {
  std::string label;
  const topo::Topology* topo = nullptr;
  std::vector<mcf::Commodity> commodities;
  mcf::McfResult result;
  double first_lambda = -1.0;  ///< round-1 answer; later rounds must repeat it
  bool repeat_ok = true;
};

struct Shape {
  const char* name;
  std::vector<Instance> instances;
  std::vector<double> round_rates;  ///< solves per second, one per round
  std::vector<double> solve_ms;     ///< every solve's wall time
};

class FigThroughput final : public Stage {
 public:
  const char* name() const override { return "fig-throughput"; }

  void setup(std::uint64_t seed) override {
    std::uint64_t stream = 0;
    for (std::uint32_t k : kBcastK) {
      core::FlatTreeNetwork net{core::FlatTreeConfig{k}};
      const topo::Topology* flat = keep([&] {
        OBS_SPAN("core.materialize");
        return net.build(core::Mode::GlobalRandom);
      });
      const topo::Topology* fat = keep([&] {
        OBS_SPAN("topo.build");
        return topo::build_fat_tree(k).topo;
      });
      const topo::Topology* jelly = keep([&] {
        OBS_SPAN("topo.build");
        util::Rng rng = util::Rng::substream(seed, 1000 + k);
        return topo::build_jellyfish_like_fat_tree(k, rng);
      });
      for (auto [tname, t] : {std::pair{"flat-global", flat}, {"fat-tree", fat},
                              {"jellyfish", jelly}})
        for (int draw = 0; draw < 2; ++draw)
          for (auto placement :
               {workload::Placement::Locality, workload::Placement::NoLocality})
            add(bcast_, tname, k, *t, placement, workload::Pattern::Broadcast, kBcastCluster,
                seed, stream++);
    }
    for (std::uint32_t k : kA2aK) {
      core::FlatTreeNetwork net{core::FlatTreeConfig{k}};
      const topo::Topology* flat = keep([&] {
        OBS_SPAN("core.materialize");
        return net.build(core::Mode::LocalRandom);
      });
      const topo::Topology* fat = keep([&] {
        OBS_SPAN("topo.build");
        return topo::build_fat_tree(k).topo;
      });
      util::Rng rng = util::Rng::substream(seed, 2000 + k);
      const topo::Topology* two = keep([&] {
        OBS_SPAN("topo.build");
        return topo::build_two_stage_random_graph(k, rng);
      });
      const topo::Topology* jelly = keep([&] {
        OBS_SPAN("topo.build");
        return topo::build_jellyfish_like_fat_tree(k, rng);
      });
      for (auto [tname, t] : {std::pair{"flat-local", flat}, {"fat-tree", fat},
                              {"two-stage", two}, {"jellyfish", jelly}})
        for (auto placement : {workload::Placement::Locality, workload::Placement::WeakLocality})
          add(a2a_, tname, k, *t, placement, workload::Pattern::AllToAll, kA2aCluster, seed,
              stream++);
    }
    // Largest instances first, so the pool's in-order chunk claiming
    // balances a round.
    for (Shape* s : {&bcast_, &a2a_})
      std::stable_sort(s->instances.begin(), s->instances.end(),
                       [](const Instance& a, const Instance& b) {
                         return a.commodities.size() > b.commodities.size();
                       });
  }

  std::string inputs_text() const override {
    std::ostringstream os;
    os.precision(17);
    for (const Shape* s : {&bcast_, &a2a_})
      for (const Instance& in : s->instances) {
        os << s->name << ' ' << in.label << ' ' << in.topo->graph().link_count() << '\n';
        for (const auto& c : in.commodities)
          os << c.src << ' ' << c.dst << ' ' << c.demand << '\n';
      }
    return os.str();
  }

  void warm_up() override {
    solve_round(bcast_, false);
    solve_round(a2a_, false);
  }

  /// Units alternate the two shapes: one round of every instance each.
  void unit() override { solve_round(units_++ % 2 == 0 ? bcast_ : a2a_, true); }

  std::size_t min_units() const override { return 6; }

  void check(Outcome& out) override {
    OBS_SPAN("check.certify");
    check::CertifyOptions copt;
    copt.epsilon = kEpsilon;
    for (const Shape* s : {&bcast_, &a2a_})
      for (const Instance& in : s->instances) {
        ++out.attempted;
        check::Report r = check::certify(in.topo->graph(), in.commodities, in.result, copt);
        if (!r.ok()) out.fail(std::string(s->name) + " " + in.label + ": " + r.to_string());
        else if (!in.repeat_ok)
          out.fail(std::string(s->name) + " " + in.label + ": lambda changed between rounds");
        else if (in.result.truncated || !(in.result.lambda_lower > 0.0))
          out.fail(std::string(s->name) + " " + in.label + ": no converged positive lambda");
      }
  }

  void report_e2e(Metrics& m) const override {
    m.set("bcast_solves_per_s", median(bcast_.round_rates), "1/s");
    m.set("a2a_solves_per_s", median(a2a_.round_rates), "1/s");
    double gap = 0.0;
    std::size_t n = 0;
    for (const Shape* s : {&bcast_, &a2a_})
      for (const Instance& in : s->instances) {
        gap += in.result.lambda_upper / in.result.lambda_lower - 1.0;
        ++n;
      }
    m.set("lambda_gap", n > 0 ? gap / static_cast<double>(n) : 0.0, "ratio");
    for (const Shape* s : {&bcast_, &a2a_}) {
      std::printf("  fig-throughput %-5s %zu instances, solves/s per round:", s->name,
                  s->instances.size());
      for (double r : s->round_rates) std::printf(" %.2f", r);
      std::printf(" (spread %.3f)\n", rel_iqr(s->round_rates));
    }
  }

  void report_layers(Metrics& m) const override {
    for (const Shape* s : {&bcast_, &a2a_}) {
      const Tail t = tail(s->solve_ms);
      const std::string base = std::string("mcf.solve_ms.") + s->name;
      m.set(base + ".p50", median(s->solve_ms), "ms");
      m.set(base + ".tail", t.value, "ms");
      std::printf("  %s: p50 %.3f ms, p%.1f %.3f ms over %zu solves\n", base.c_str(),
                  median(s->solve_ms), t.pct, t.value, t.n);
    }
  }

 private:
  template <typename Build>
  const topo::Topology* keep(Build&& build) {
    topos_.push_back(std::make_unique<topo::Topology>(build()));
    return topos_.back().get();
  }

  void add(Shape& shape, const char* tname, std::uint32_t k, const topo::Topology& t,
           workload::Placement placement, workload::Pattern pattern, std::uint32_t cluster,
           std::uint64_t seed, std::uint64_t stream) {
    util::Rng rng = util::Rng::substream(seed, stream);
    const auto servers = static_cast<std::uint32_t>(t.server_count());
    std::vector<mcf::ServerDemand> demands;
    {
      OBS_SPAN("workload.clusters");
      auto clusters = workload::make_clusters(servers, std::min(cluster, servers), placement,
                                              k * k / 4, rng);
      demands = workload::cluster_traffic(clusters, pattern, rng);
    }
    Instance in;
    in.label = std::string(tname) + "/k" + std::to_string(k) + "/" +
               workload::to_string(placement);
    in.topo = &t;
    {
      OBS_SPAN("mcf.aggregate_to_switches");
      in.commodities = mcf::aggregate_to_switches(t, demands);
    }
    shape.instances.push_back(std::move(in));
  }

  void solve_round(Shape& shape, bool timed) {
    std::vector<double> ms(shape.instances.size());
    const auto t0 = Clock::now();
    exec::parallel_for(shape.instances.size(), [&](std::size_t i) {
      Instance& in = shape.instances[i];
      mcf::McfOptions opt;
      opt.epsilon = kEpsilon;
      opt.compute_upper_bound = true;
      const auto s0 = Clock::now();
      {
        OBS_SPAN("mcf.max_concurrent_flow");
        in.result = mcf::max_concurrent_flow(in.topo->graph(), in.commodities, opt);
      }
      ms[i] = ms_since(s0);
      if (in.first_lambda < 0.0) in.first_lambda = in.result.lambda_lower;
      else if (in.first_lambda != in.result.lambda_lower) in.repeat_ok = false;
    });
    const double wall = seconds_since(t0);
    if (!timed) return;
    shape.round_rates.push_back(static_cast<double>(shape.instances.size()) / wall);
    shape.solve_ms.insert(shape.solve_ms.end(), ms.begin(), ms.end());
  }

  std::vector<std::unique_ptr<topo::Topology>> topos_;
  std::size_t units_ = 0;
  Shape bcast_{"bcast", {}, {}, {}};
  Shape a2a_{"a2a", {}, {}, {}};
};

}  // namespace

std::unique_ptr<Stage> make_fig_throughput() {
  return std::make_unique<FigThroughput>();
}

}  // namespace perfbench
