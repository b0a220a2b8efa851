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
#include "fault/degrade.hpp"

using namespace flattree;

int main(int argc, char** argv) {
  std::int64_t k = 8, max_failures = 8, seeds = 2, seed = 1, cluster = 40;
  double eps = 0.12;
  util::CliParser cli("Extension: failure recovery by reconversion.");
  cli.add_int("k", &k, bench::kK, "fat-tree parameter");
  cli.add_int("max-failures", &max_failures, {0, bench::kMaxU32},
              "largest number of failed core switches (at most the core count)");
  cli.add_int("cluster", &cluster, bench::kCluster,
              "broadcast cluster size for throughput (at most the server count)");
  cli.add_int("seeds", &seeds, bench::kSeeds, "failure draws to average");
  cli.add_int("seed", &seed, bench::kRngSeed, "base RNG seed");
  cli.add_double("eps", &eps, bench::kEps, "Garg-Koenemann epsilon");
  bench::Run run(cli, argc, argv);
  if (!run.parsed()) return cli.exit_code();
  run.set_int("seed", seed);
  run.set_double("eps", eps);

  const std::uint32_t ku = static_cast<std::uint32_t>(k);
  core::FlatTreeNetwork net = bench::profiled_network(ku);
  auto configs = net.assign_configs(core::Mode::GlobalRandom);
  const std::uint32_t cores = net.params().cores();
  // Plant-dependent checks: each failure draw takes distinct cores, and a
  // cluster larger than the plant places no traffic.
  if (max_failures > cores) {
    std::fprintf(stderr,
                 "bench_failures: --max-failures %lld exceeds the plant's %u core "
                 "switches\n",
                 static_cast<long long>(max_failures), cores);
    return 2;
  }
  if (!bench::cluster_fits("bench_failures", cluster, net.params().total_servers()))
    return 2;

  // Fixed workload; fault::assess keeps the demands between surviving
  // servers.
  util::Rng wl(static_cast<std::uint64_t>(seed) * 7);
  auto clusters = workload::make_clusters(net.params().total_servers(),
                                          static_cast<std::uint32_t>(cluster),
                                          workload::Placement::NoLocality,
                                          net.params().servers_per_pod(), wl);
  auto demands = workload::cluster_traffic(clusters, workload::Pattern::Broadcast, wl);

  // One degraded instant: stranded count plus fault::assess's APL over
  // the largest alive component, lambda and demand-weighted served share.
  struct ZoneResult {
    std::size_t stranded = 0;
    fault::Assessment metrics;
  };
  auto degraded = [&](const std::vector<core::ConverterConfig>& cfg,
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
    ZoneResult r{d.stranded_servers.size(),
                 fault::assess(d.topo, d.stranded_servers, demands, eps, 0)};
    if (bench::selfcheck_enabled()) bench::selfcheck_record(r.metrics.certificate, "mcf");
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

      auto recovered = core::plan_recovery(net, configs, failures).configs;
      ZoneResult before = degraded(configs, failures);
      ZoneResult after = degraded(recovered, failures);
      stranded_before += static_cast<double>(before.stranded);
      stranded_after += static_cast<double>(after.stranded);
      lam_before += before.metrics.result.lambda_lower;
      lam_after += after.metrics.result.lambda_lower;
      served_before += before.metrics.served;
      served_after += after.metrics.served;
      apl_before += before.metrics.apl;
      apl_after += after.metrics.apl;
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
