// Section 3.4: hybrid flat-tree.
//
// The network is split into two zones at varying proportions: one operates
// as an approximated global random graph (broadcast clusters), the other
// as approximated local random graphs (20-server all-to-all clusters).
// The paper reports that each zone achieves the same throughput as a
// dedicated complete network under the same traffic, i.e. the zones are
// perfectly segregated.
//
// We report two views per proportion:
//   * isolated per-zone lambda / dedicated-network lambda — with only one
//     zone loaded, a zone can even exceed 1.0 by borrowing the idle other
//     zone's detour capacity;
//   * the joint sustainability factor: both zones loaded simultaneously,
//     each zone's demands pre-scaled by its dedicated lambda, solved as
//     one concurrent flow. A factor ~1.0 means each zone sustains its
//     dedicated throughput at the same time — the paper's segregation
//     claim.

#include <algorithm>
#include <cstdio>
#include <map>

#include "common.hpp"
#include "core/zones.hpp"
#include "topo/apl.hpp"

using namespace flattree;

namespace {

std::vector<mcf::ServerDemand> zone_demands(const std::vector<topo::ServerId>& servers,
                                            std::uint32_t cluster_size,
                                            workload::Placement placement,
                                            workload::Pattern pattern,
                                            std::uint32_t servers_per_pod,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  auto clusters =
      workload::make_clusters_subset(servers, cluster_size, placement, servers_per_pod, rng);
  if (clusters.empty()) return {};
  return workload::cluster_traffic(clusters, pattern, rng);
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t k = 8, step_percent = 20, seeds = 2, seed = 1, g_cluster = 40,
               l_cluster = 16;
  double eps = 0.12;
  bool full = false;
  util::CliParser cli("Section 3.4 reproduction: hybrid-mode zone segregation.");
  cli.add_int("k", &k, bench::kK, "fat-tree parameter (paper uses 30)");
  cli.add_int("step", &step_percent, {1, 99}, "zone proportion step in percent");
  cli.add_int("global-cluster", &g_cluster, bench::kCluster,
              "broadcast cluster size (global zone)");
  cli.add_int("local-cluster", &l_cluster, bench::kCluster,
              "all-to-all cluster size (local zone)");
  cli.add_int("seeds", &seeds, bench::kSeeds, "placement draws to average");
  cli.add_int("seed", &seed, bench::kRngSeed, "base RNG seed");
  cli.add_double("eps", &eps, bench::kEps, "Garg-Koenemann epsilon");
  cli.add_bool("full", &full, "paper-scale run: k = 30, 10% steps (slow)");
  bench::Run run(cli, argc, argv);
  if (!run.parsed()) return cli.exit_code();
  run.set_int("seed", seed);
  run.set_double("eps", eps);
  if (full) {
    k = 30;
    step_percent = 10;
    g_cluster = 1000;
    l_cluster = 20;
  }

  const std::uint32_t ku = static_cast<std::uint32_t>(k);
  const std::uint32_t per_pod = ku * ku / 4;
  core::FlatTreeNetwork net = bench::profiled_network(ku);

  // Dedicated-network references per cluster size (computed lazily: the
  // zone cluster size shrinks when a zone is smaller than the cluster).
  topo::Topology full_global = net.build(core::Mode::GlobalRandom);
  topo::Topology full_local = net.build(core::Mode::LocalRandom);
  bench::check_topology(full_global, "flat-tree(global)");
  bench::check_topology(full_local, "flat-tree(local)");
  bench::check_parity(full_global, full_local, "global vs local build");
  std::map<std::uint32_t, double> ref_global, ref_local;
  auto reference = [&](std::map<std::uint32_t, double>& cache, const topo::Topology& t,
                       std::uint32_t size, workload::Placement placement,
                       workload::Pattern pattern) {
    auto it = cache.find(size);
    if (it != cache.end()) return it->second;
    std::vector<topo::ServerId> all(t.server_count());
    for (topo::ServerId s = 0; s < all.size(); ++s) all[s] = s;
    double sum = 0.0;
    for (std::int64_t s = 0; s < seeds; ++s) {
      auto demands = zone_demands(all, size, placement, pattern, per_pod,
                                  static_cast<std::uint64_t>(seed) * 37 + s);
      sum += bench::throughput(t, demands, eps);
    }
    double v = sum / static_cast<double>(seeds);
    cache.emplace(size, v);
    return v;
  };

  util::Table table({"global%", "hybrid apl", "global iso", "global dedicated",
                     "global iso ratio", "local iso", "local dedicated",
                     "local iso ratio", "joint factor"});
  for (std::int64_t pct = step_percent; pct < 100; pct += step_percent) {
    core::ZonePartition zones =
        core::ZonePartition::proportion(ku, static_cast<double>(pct) / 100.0);
    topo::Topology hybrid = net.build(zones.pod_modes);
    bench::check_topology(hybrid, "flat-tree(hybrid)");
    const double hybrid_apl = topo::server_apl(hybrid).average;
    bench::check_parity(full_global, hybrid, "global vs hybrid build");
    auto g_servers = core::servers_in_pods(net, zones.pods_in(core::Mode::GlobalRandom));
    auto l_servers = core::servers_in_pods(net, zones.pods_in(core::Mode::LocalRandom));

    std::uint32_t g_size = std::min<std::uint32_t>(static_cast<std::uint32_t>(g_cluster),
                                                   static_cast<std::uint32_t>(g_servers.size()));
    std::uint32_t l_size = std::min<std::uint32_t>(static_cast<std::uint32_t>(l_cluster),
                                                   static_cast<std::uint32_t>(l_servers.size()));
    double g_ref = reference(ref_global, full_global, g_size,
                             workload::Placement::NoLocality, workload::Pattern::Broadcast);
    double l_ref = reference(ref_local, full_local, l_size,
                             workload::Placement::WeakLocality, workload::Pattern::AllToAll);

    double g_iso = 0.0, l_iso = 0.0, joint = 0.0;
    for (std::int64_t s = 0; s < seeds; ++s) {
      auto g_demands = zone_demands(g_servers, g_size, workload::Placement::NoLocality,
                                    workload::Pattern::Broadcast, per_pod,
                                    static_cast<std::uint64_t>(seed) * 101 + pct + s);
      auto l_demands = zone_demands(l_servers, l_size, workload::Placement::WeakLocality,
                                    workload::Pattern::AllToAll, per_pod,
                                    static_cast<std::uint64_t>(seed) * 103 + pct + s);
      g_iso += bench::throughput(hybrid, g_demands, eps);
      l_iso += bench::throughput(hybrid, l_demands, eps);
      // Joint sustainability: each zone's demands scaled by its dedicated
      // lambda; factor 1.0 = both zones hit dedicated throughput at once.
      std::vector<mcf::ServerDemand> scaled;
      scaled.reserve(g_demands.size() + l_demands.size());
      for (auto d : g_demands) {
        d.demand *= g_ref;
        scaled.push_back(d);
      }
      for (auto d : l_demands) {
        d.demand *= l_ref;
        scaled.push_back(d);
      }
      joint += bench::throughput(hybrid, scaled, eps);
    }
    g_iso /= static_cast<double>(seeds);
    l_iso /= static_cast<double>(seeds);
    joint /= static_cast<double>(seeds);

    table.begin_row();
    table.integer(pct);
    table.num(hybrid_apl, 4);
    table.num(g_iso, 5);
    table.num(g_ref, 5);
    table.num(g_ref > 0 ? g_iso / g_ref : 0.0, 3);
    table.num(l_iso, 5);
    table.num(l_ref, 5);
    table.num(l_ref > 0 ? l_iso / l_ref : 0.0, 3);
    table.num(joint, 3);
    std::fprintf(stderr, "[hybrid] %lld%% done\n", static_cast<long long>(pct));
  }
  table.print("Section 3.4: hybrid flat-tree zone throughput vs dedicated networks");
  std::puts("Paper claim: zones are segregated. Joint factor ~1.0 means both zones\n"
            "sustain their dedicated-network throughput simultaneously; isolated\n"
            "ratios can exceed 1.0 (an unloaded zone lends detour capacity).");
  return bench::selfcheck_exit();
}
