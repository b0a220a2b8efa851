// packet-des: the bench_congestion case matrix at a size where one pass
// takes about a second: 4 fabrics (fat-tree, flat-tree global and local
// RG, Jellyfish) x incast / permutation / all-to-all x drop-tail / DCTCP,
// forwarded by WCMP FIBs with flowlets. The only workload where sim, te
// and routing do the work.
//
// Set-up builds the fabrics, compiles one WCMP FIB per fabric from ECMP
// path multiplicities over every server pair, and draws the flows from the
// seed. One pass runs the 24 single-threaded simulations over the exec
// pool; des.pkts_per_s divides the delivered packets by the summed wall
// time of the simulations.

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "check/te_check.hpp"
#include "core/flat_tree.hpp"
#include "exec/parallel_for.hpp"
#include "perfbench.hpp"
#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "sim/packet_sim.hpp"
#include "te/wcmp.hpp"
#include "topo/fat_tree.hpp"
#include "topo/random_graph.hpp"
#include "workload/traffic.hpp"

namespace perfbench {
namespace {

using namespace flattree;

// bench_congestion's defaults, with 32x longer packet trains.
constexpr std::uint32_t kK = 8;
constexpr std::uint32_t kTrain = 1024;
constexpr std::uint32_t kIncastSources = 24;
constexpr std::size_t kA2aSubset = 12;

struct Fabric {
  const char* name;
  std::unique_ptr<topo::Topology> topo;
  std::unique_ptr<te::WeightedFib> fib;
};

struct Load {
  const char* name;
  std::vector<sim::PacketFlow> flows;
};

struct Case {
  std::size_t fabric = 0, load = 0;
  bool ecn = false;
  sim::PacketStats stats;
  sim::PacketStats first;
  bool ran = false;
  bool repeat_ok = true;
  std::vector<double> run_ms;
};

bool same(const sim::PacketStats& a, const sim::PacketStats& b) {
  return a.injected == b.injected && a.delivered == b.delivered && a.dropped == b.dropped &&
         a.finish_time == b.finish_time && a.fct_p99 == b.fct_p99 &&
         a.ecn_marked == b.ecn_marked;
}

class PacketDes final : public Stage {
 public:
  const char* name() const override { return "packet-des"; }

  void setup(std::uint64_t seed) override {
    core::FlatTreeNetwork net{core::FlatTreeConfig{kK}};
    auto add = [&](const char* name, auto build) {
      Fabric f{name, std::make_unique<topo::Topology>(build()), nullptr};
      routing::EcmpRouting ecmp = [&] {
        OBS_SPAN("routing.ecmp");
        return routing::EcmpRouting(f.topo->graph());
      }();
      auto pairs = routing::all_server_pairs(*f.topo);
      OBS_SPAN("te.compile_wcmp_paths");
      f.fib = std::make_unique<te::WeightedFib>(te::compile_wcmp_paths(*f.topo, ecmp, pairs));
      fabrics_.push_back(std::move(f));
    };
    add("fat-tree", [&] {
      OBS_SPAN("topo.build");
      return topo::build_fat_tree(kK).topo;
    });
    add("flat-global", [&] {
      OBS_SPAN("core.materialize");
      return net.build(core::Mode::GlobalRandom);
    });
    add("flat-local", [&] {
      OBS_SPAN("core.materialize");
      return net.build(core::Mode::LocalRandom);
    });
    add("jellyfish", [&] {
      OBS_SPAN("topo.build");
      util::Rng rng = util::Rng::substream(seed, 7);
      return topo::build_jellyfish_like_fat_tree(kK, rng);
    });

    const std::uint32_t total = net.params().total_servers();
    auto to_flows = [](const std::vector<mcf::ServerDemand>& demands) {
      std::vector<sim::PacketFlow> flows;
      for (const auto& d : demands) flows.push_back({d.src, d.dst, kTrain, 0.0});
      return flows;
    };
    {
      OBS_SPAN("workload.flows");
      loads_.push_back({"incast", to_flows(workload::incast_pattern(total, kIncastSources, seed))});
      util::Rng perm = util::Rng::substream(seed, 3);
      loads_.push_back({"permutation", to_flows(workload::permutation_traffic(total, perm))});
      util::Rng pick = util::Rng::substream(seed, 4);
      std::vector<topo::ServerId> servers(total);
      for (std::uint32_t s = 0; s < total; ++s) servers[s] = s;
      pick.shuffle(servers);
      std::vector<sim::PacketFlow> a2a;
      for (std::size_t i = 0; i < kA2aSubset; ++i)
        for (std::size_t j = 0; j < kA2aSubset; ++j)
          if (i != j) a2a.push_back({servers[i], servers[j], kTrain, 0.0});
      loads_.push_back({"all-to-all", std::move(a2a)});
    }
    for (std::size_t f = 0; f < fabrics_.size(); ++f)
      for (std::size_t l = 0; l < loads_.size(); ++l)
        for (bool ecn : {false, true}) cases_.push_back(Case{f, l, ecn, {}, {}, false, true, {}});
  }

  std::string inputs_text() const override {
    std::ostringstream os;
    for (const Fabric& f : fabrics_)
      os << f.name << " links " << f.topo->link_count() << " rules " << f.fib->rule_count()
         << '\n';
    for (const Load& l : loads_) {
      os << l.name;
      for (const auto& fl : l.flows) os << ' ' << fl.src << '>' << fl.dst;
      os << '\n';
    }
    return os.str();
  }

  void warm_up() override { pass(false); }
  void unit() override { pass(true); }
  std::size_t min_units() const override { return 3; }

  void check(Outcome& out) override {
    OBS_SPAN("check.des");
    for (const Case& c : cases_) {
      ++out.attempted;
      const std::string label = label_of(c);
      if (c.stats.injected != c.stats.delivered + c.stats.dropped)
        out.fail(label + ": injected != delivered + dropped");
      if (c.stats.delivered == 0) out.fail(label + ": nothing delivered");
      if (!c.repeat_ok) out.fail(label + ": stats changed between passes");
    }
    // Model-check each FIB over the switch pairs the flows use.
    for (const Fabric& f : fabrics_) {
      ++out.attempted;
      std::set<std::pair<graph::NodeId, graph::NodeId>> used;
      for (const Load& l : loads_)
        for (const auto& fl : l.flows) {
          auto a = f.topo->host(fl.src), b = f.topo->host(fl.dst);
          if (a != b) used.insert({a, b});
        }
      std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs(used.begin(), used.end());
      check::Report r = check::validate_weighted_fib(*f.topo, *f.fib, pairs);
      if (!r.ok()) out.fail(std::string(f.name) + " FIB: " + r.to_string());
    }
  }

  void report_e2e(Metrics& m) const override {
    m.set("des.pkts_per_s", median(pass_rates_), "1/s");
    std::printf("  packet-des: %zu cases, %zu passes, spread %.3f\n", cases_.size(),
                pass_rates_.size(), rel_iqr(pass_rates_));
  }

  void report_layers(Metrics& m) const override {
    std::vector<double> per_case;
    for (const Case& c : cases_) {
      per_case.push_back(median(c.run_ms));
      std::printf("  sim.run_ms %-34s %9.3f ms\n", label_of(c).c_str(), per_case.back());
    }
    m.set("sim.run_ms.median_case", median(per_case), "ms");
    m.set("sim.run_ms.max_case", *std::max_element(per_case.begin(), per_case.end()), "ms");
  }

 private:
  void pass(bool timed) {
    exec::parallel_for(cases_.size(), [&](std::size_t i) { run_case(cases_[i], timed); });
    if (!timed) return;
    // Delivered packets per second of simulation wall time, summed over
    // the single-threaded cases (pool scheduling stays out of it).
    std::uint64_t delivered = 0;
    double sim_ms = 0.0;
    for (const Case& c : cases_) {
      delivered += c.stats.delivered;
      sim_ms += c.run_ms.back();
    }
    pass_rates_.push_back(1e3 * static_cast<double>(delivered) / sim_ms);
  }

  std::string label_of(const Case& c) const {
    return std::string(fabrics_[c.fabric].name) + "/" + loads_[c.load].name + "/" +
           (c.ecn ? "dctcp" : "drop-tail");
  }

  void run_case(Case& c, bool timed) {
    sim::PacketSimConfig cfg;
    cfg.queue_packets = 16;
    cfg.nic_rate = 4.0;
    cfg.propagation_delay = 0.01;
    cfg.flowlet_gap = 0.5;
    cfg.ecn_threshold = 8;
    cfg.ecn = c.ecn;
    const Fabric& f = fabrics_[c.fabric];
    const auto t0 = Clock::now();
    {
      OBS_SPAN("sim.packet_run");
      sim::PacketSimulator simulator(*f.topo, *f.fib, cfg);
      c.stats = simulator.run(loads_[c.load].flows);
    }
    if (timed) c.run_ms.push_back(ms_since(t0));
    if (!c.ran) {
      c.first = c.stats;
      c.ran = true;
    } else if (!same(c.first, c.stats)) {
      c.repeat_ok = false;
    }
  }

  std::vector<Fabric> fabrics_;
  std::vector<Load> loads_;
  std::vector<Case> cases_;
  std::vector<double> pass_rates_;
};

}  // namespace

std::unique_ptr<Stage> make_packet_des() { return std::make_unique<PacketDes>(); }

}  // namespace perfbench
