// Extension (paper Section 5): self-recovery of the topology from
// failures via convertibility.
//
// Sweeps the number of failed core switches in global-random mode and
// reports, per failure level: stranded servers without recovery, stranded
// servers after converter-based recovery, and the broadcast throughput of
// the degraded network before/after recovery. A static topology can only
// reroute; flat-tree additionally re-homes servers by flipping converters.

#include <cstdio>

#include "common.hpp"
#include "core/recovery.hpp"
#include "topo/apl.hpp"

using namespace flattree;

int main(int argc, char** argv) {
  std::int64_t k = 8, max_failures = 8, seeds = 2, seed = 1, cluster = 40;
  double eps = 0.12;
  std::int64_t threads = 0;
  util::CliParser cli("Extension: failure recovery by reconversion.");
  cli.add_int("k", &k, "fat-tree parameter");
  cli.add_int("max-failures", &max_failures, "largest number of failed core switches");
  cli.add_int("cluster", &cluster, "broadcast cluster size for throughput");
  cli.add_int("seeds", &seeds, "failure draws to average");
  cli.add_int("seed", &seed, "base RNG seed");
  cli.add_double("eps", &eps, "Garg-Koenemann epsilon");
  bool selfcheck = false;
  bench::add_threads_flag(cli, &threads);
  bench::add_selfcheck_flag(cli, &selfcheck);
  bench::ObsFlags obsf;
  bench::add_obs_flags(cli, &obsf);
  if (!cli.parse(argc, argv)) return cli.exit_code();
  if (!bench::k_in_range("bench_failures", k)) return 2;
  if (!bench::seeds_in_range("bench_failures", seeds)) return 2;
  bench::apply_threads(threads);
  bench::apply_selfcheck(selfcheck);
  bench::ObsScope obs_run(obsf, argc, argv);
  obs_run.set_int("threads", threads);
  obs_run.set_int("seed", seed);
  obs_run.set_double("eps", eps);

  const std::uint32_t ku = static_cast<std::uint32_t>(k);
  core::FlatTreeNetwork net = bench::profiled_network(ku);
  auto configs = net.assign_configs(core::Mode::GlobalRandom);
  const std::uint32_t cores = net.params().cores();

  // Fixed workload; demands only between surviving servers are kept.
  util::Rng wl(static_cast<std::uint64_t>(seed) * 7);
  auto clusters = workload::make_clusters(net.params().total_servers(),
                                          static_cast<std::uint32_t>(cluster),
                                          workload::Placement::NoLocality,
                                          net.params().servers_per_pod(), wl);
  auto demands = workload::cluster_traffic(clusters, workload::Pattern::Broadcast, wl);

  struct ZoneResult {
    double lambda = 0.0;
    double served = 0.0;  ///< fraction of demands still servable
    double apl = 0.0;     ///< server APL among surviving servers
  };
  auto degraded_throughput = [&](const std::vector<core::ConverterConfig>& cfg,
                                 const core::FailureSet& failures) {
    topo::Topology healthy = net.materialize(cfg);
    bench::check_topology(healthy, "materialized");
    core::DegradedTopology d = core::apply_failures(healthy, failures);
    // After failures the dead switches stay as isolated nodes and their
    // servers are the declared stranded set; connectivity is only required
    // of the surviving subgraph.
    check::TopologyCheckOptions degraded_opts;
    degraded_opts.allow_isolated_switches = true;
    degraded_opts.declared_stranded = d.stranded_servers;
    bench::check_topology(d.topo, "degraded", degraded_opts);
    std::vector<char> stranded(d.topo.server_count(), 0);
    for (topo::ServerId s : d.stranded_servers) stranded[s] = 1;
    std::vector<mcf::ServerDemand> alive;
    for (const auto& dem : demands)
      if (!stranded[dem.src] && !stranded[dem.dst]) alive.push_back(dem);
    ZoneResult r;
    r.served = demands.empty() ? 1.0
                               : static_cast<double>(alive.size()) /
                                     static_cast<double>(demands.size());
    // APL among surviving servers (the stranded ones sit on isolated dead
    // switches).
    std::vector<topo::ServerId> alive_servers;
    for (topo::ServerId sv = 0; sv < d.topo.server_count(); ++sv)
      if (!stranded[sv]) alive_servers.push_back(sv);
    r.apl = topo::server_apl_subset(d.topo, alive_servers).average;
    try {
      r.lambda = bench::throughput(d.topo, alive, eps);
    } catch (const std::exception&) {
      r.lambda = 0.0;  // degraded network disconnected for some demand
    }
    return r;
  };

  util::Table table({"failed cores", "stranded (no recovery)", "stranded (recovered)",
                     "served% degraded", "served% recovered", "lambda degraded",
                     "lambda recovered", "apl degraded", "apl recovered"});
  for (std::int64_t fails = 0; fails <= max_failures; fails += 2) {
    double stranded_before = 0, stranded_after = 0, lam_before = 0, lam_after = 0;
    double served_before = 0, served_after = 0, apl_before = 0, apl_after = 0;
    for (std::int64_t s = 0; s < seeds; ++s) {
      util::Rng rng(static_cast<std::uint64_t>(seed) * 13 + fails * 31 + s);
      core::FailureSet failures;
      std::vector<std::uint32_t> pool(cores);
      for (std::uint32_t c = 0; c < cores; ++c) pool[c] = c;
      rng.shuffle(pool);
      for (std::int64_t i = 0; i < fails; ++i)
        failures.failed_switches.push_back(net.core_switch(pool[static_cast<std::size_t>(i)]));

      stranded_before += static_cast<double>(
          core::stranded_server_count(net, configs, failures));
      auto recovered = core::plan_recovery(net, configs, failures).configs;
      stranded_after += static_cast<double>(
          core::stranded_server_count(net, recovered, failures));
      ZoneResult before = degraded_throughput(configs, failures);
      ZoneResult after = degraded_throughput(recovered, failures);
      lam_before += before.lambda;
      lam_after += after.lambda;
      served_before += before.served;
      served_after += after.served;
      apl_before += before.apl;
      apl_after += after.apl;
    }
    table.begin_row();
    table.integer(fails);
    table.num(stranded_before / seeds, 1);
    table.num(stranded_after / seeds, 1);
    table.num(100.0 * served_before / seeds, 1);
    table.num(100.0 * served_after / seeds, 1);
    table.num(lam_before / seeds, 5);
    table.num(lam_after / seeds, 5);
    table.num(apl_before / seeds, 4);
    table.num(apl_after / seeds, 4);
  }
  table.print("Extension: core-switch failures, recovery by reconversion");
  std::puts("Convertibility re-homes every server stranded on a failed core (a\n"
            "static random graph would lose them until recabled).");
  return bench::selfcheck_exit();
}
