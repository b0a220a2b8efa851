// Chaos bench (ISSUE 5 tentpole): availability timeline under a seeded
// fault/repair trace, fat-tree reroute-only vs flat-tree reconversion.
//
// One Scenario (src/fault) is generated from the physical Clos baseline —
// switch ids are shared by every conversion, so the identical trace
// stresses both tracks:
//
//   fat   static fat-tree; faults only remove links/switches (each report
//         point degrades the Clos baseline afresh; "links cut/healed"
//         sum the rise/fall of its dead-link count over the edge-triggered
//         events, and --selfcheck compares that count with the degrade).
//   flat  ResilientController converting Clos -> --mode from t=0, advancing
//         --convert-rate micro-transactions per event, so faults land mid-
//         reconfiguration and exercise replan / rollback / recovery.
//
// Per report point both tracks print stranded servers, surviving-server
// APL (largest connected component of alive servers), and — every
// --mcf-every report — throughput lambda with unreachable commodities
// excised (mcf allow_unreachable) plus the served fraction of demand
// volume. Timelines are a pure function of the trace: bitwise identical
// across --threads and a --save-scenario/--load-scenario
// round trip. --selfcheck validates every instant (assignment validity,
// degraded topology battery, certify_served, fault-tally conservation).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "check/certify.hpp"
#include "common.hpp"
#include "fault/fault.hpp"
#include "topo/apl.hpp"

using namespace flattree;

namespace {

std::string event_label(const fault::FaultEvent& e) {
  std::ostringstream os;
  os << fault::to_string(e.kind) << ' ' << e.a;
  if (e.kind == fault::FaultKind::LinkDown || e.kind == fault::FaultKind::LinkUp)
    os << '-' << e.b;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t k = 8, seed = 1, cluster = 40, report_every = 5, mcf_every = 2;
  std::int64_t convert_rate = 2, flap_cycles = 4, max_replans = 3, backoff = 2;
  std::int64_t mcf_budget = 0;
  double duration = 30.0, eps = 0.12, flap_prob = 0.25;
  double switch_mtbf = 250.0, switch_mttr = 4.0, link_mtbf = 600.0, link_mttr = 3.0;
  double conv_mtbf = 500.0, conv_mttr = 6.0, pod_mtbf = 2000.0, pod_mttr = 5.0;
  std::string mode = "global", save_path, load_path;
  std::int64_t threads = 0;
  util::CliParser cli("Chaos: availability under a fault trace, reroute vs reconversion.");
  cli.add_int("k", &k, "fat-tree parameter");
  cli.add_double("duration", &duration, "simulated horizon (failures drawn before this)");
  cli.add_int("seed", &seed, "scenario + workload RNG seed");
  cli.add_string("mode", &mode, "flat-tree conversion target: global | local | clos");
  cli.add_int("convert-rate", &convert_rate, "micro-transactions advanced per event");
  cli.add_int("cluster", &cluster, "broadcast cluster size for throughput");
  cli.add_double("eps", &eps, "Garg-Koenemann epsilon");
  cli.add_int("report-every", &report_every, "events per timeline report row");
  cli.add_int("mcf-every", &mcf_every, "solve throughput every Nth report (0 = never)");
  cli.add_int("mcf-budget", &mcf_budget, "max GK augmentations per solve (0 = unlimited)");
  cli.add_double("switch-mtbf", &switch_mtbf, "per-switch mean time between failures");
  cli.add_double("switch-mttr", &switch_mttr, "per-switch mean time to repair");
  cli.add_double("link-mtbf", &link_mtbf, "per-link-pair mean time between failures");
  cli.add_double("link-mttr", &link_mttr, "per-link-pair mean time to repair");
  cli.add_double("conv-mtbf", &conv_mtbf, "per-converter stuck-at-config MTBF");
  cli.add_double("conv-mttr", &conv_mttr, "per-converter stuck-at-config MTTR");
  cli.add_double("pod-mtbf", &pod_mtbf, "per-pod power-domain MTBF (0 disables)");
  cli.add_double("pod-mttr", &pod_mttr, "per-pod power-domain MTTR");
  cli.add_double("flap-prob", &flap_prob, "probability a link outage flaps");
  cli.add_int("flap-cycles", &flap_cycles, "max down/up cycles in a flapping burst");
  cli.add_int("max-replans", &max_replans, "replans per conversion before rollback");
  cli.add_int("backoff", &backoff, "events to park an aborted conversion");
  cli.add_string("save-scenario", &save_path, "write the generated trace to this path");
  cli.add_string("load-scenario", &load_path, "replay a saved trace instead of generating");
  bool selfcheck = false;
  bench::add_threads_flag(cli, &threads);
  bench::add_selfcheck_flag(cli, &selfcheck);
  bench::ObsFlags obsf;
  bench::add_obs_flags(cli, &obsf);
  if (!cli.parse(argc, argv)) return cli.exit_code();
  if (!bench::k_in_range("bench_chaos", k)) return 2;
  bench::apply_threads(threads);
  bench::apply_selfcheck(selfcheck);
  bench::ObsScope obs_run(obsf, argc, argv);
  obs_run.set_int("threads", threads);
  obs_run.set_int("seed", seed);
  obs_run.set_double("eps", eps);
  obs_run.set_double("duration", duration);
  obs_run.set_int("convert_rate", convert_rate);

  core::Mode target;
  if (mode == "global") {
    target = core::Mode::GlobalRandom;
  } else if (mode == "local") {
    target = core::Mode::LocalRandom;
  } else if (mode == "clos") {
    target = core::Mode::Clos;
  } else {
    std::fprintf(stderr, "bench_chaos: unknown --mode '%s'\n", mode.c_str());
    return 2;
  }
  if (flap_cycles < 0 || flap_cycles > std::numeric_limits<std::uint32_t>::max()) {
    std::fprintf(stderr, "bench_chaos: --flap-cycles must lie in [0, %u]\n",
                 std::numeric_limits<std::uint32_t>::max());
    return 2;
  }

  const std::uint32_t ku = static_cast<std::uint32_t>(k);
  core::FlatTreeConfig cfg;
  cfg.k = ku;
  core::FlatTreeNetwork net = bench::profiled_network(ku);
  topo::Topology clos = net.materialize(net.assign_configs(core::Mode::Clos));
  bench::check_topology(clos, "clos baseline");

  // The trace: generated from the Clos physical baseline, or replayed.
  fault::Scenario scenario;
  if (!load_path.empty()) {
    std::ifstream in(load_path);
    if (!in) {
      std::fprintf(stderr, "bench_chaos: cannot open --load-scenario '%s'\n",
                   load_path.c_str());
      return 2;
    }
    scenario = fault::load_scenario(in);
  } else {
    fault::ScenarioParams sp;
    sp.duration = duration;
    sp.seed = static_cast<std::uint64_t>(seed);
    sp.switches = {switch_mtbf, switch_mttr};
    sp.link = {link_mtbf, link_mttr};
    sp.converter = {conv_mtbf, conv_mttr};
    sp.pod_power = {pod_mtbf, pod_mttr};
    sp.flap_probability = flap_prob;
    sp.flap_max_cycles = static_cast<std::uint32_t>(flap_cycles);
    try {
      scenario = fault::generate_scenario(clos, sp, net.converters().size(),
                                          net.params().pods());
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bench_chaos: %s\n", e.what());
      return 2;
    }
  }
  if (!save_path.empty()) {
    std::ofstream out(save_path);
    if (!out) {
      std::fprintf(stderr, "bench_chaos: cannot open --save-scenario '%s'\n",
                   save_path.c_str());
      return 2;
    }
    fault::save_scenario(scenario, out);
  }
  obs_run.set_int("events", static_cast<std::int64_t>(scenario.events.size()));

  // Fixed workload, shared by both tracks (same draw as bench_failures).
  util::Rng wl(static_cast<std::uint64_t>(seed) * 7);
  auto clusters = workload::make_clusters(net.params().total_servers(),
                                          static_cast<std::uint32_t>(cluster),
                                          workload::Placement::NoLocality,
                                          net.params().servers_per_pod(), wl);
  auto demands = workload::cluster_traffic(clusters, workload::Pattern::Broadcast, wl);
  double total_demand = 0.0;
  for (const auto& d : demands) total_demand += d.demand;

  // Fat-tree track: static topology. An edge-triggered event only takes
  // things down or only brings them up, so the change in the number of
  // dead Clos links across it is exactly the links it cut or healed.
  fault::FaultState ft_state(net.params().total_switches(), net.converters().size());
  auto dead_clos_links = [&] {
    std::size_t dead = 0;
    for (const graph::Link& l : clos.graph().links())
      dead += fault::link_dead(ft_state, l.a, l.b) ? 1 : 0;
    return dead;
  };
  std::size_t ft_dead = 0;
  std::uint64_t links_cut = 0, links_healed = 0;

  // Flat-tree track: resilient controller converting from t = 0.
  fault::ResilientOptions ropt;
  ropt.max_replans = static_cast<std::uint32_t>(max_replans);
  ropt.backoff_events = static_cast<std::uint32_t>(backoff);
  fault::ResilientController ctl(cfg, ropt);
  ctl.begin_conversion(target);

  // Throughput with unreachable commodities excised; served = fraction of
  // demand volume still deliverable (endpoints alive AND connected).
  auto mcf_point = [&](const topo::Topology& t, const std::vector<char>& stranded,
                       double* served) {
    std::vector<mcf::ServerDemand> alive;
    double alive_demand = 0.0;
    for (const auto& d : demands)
      if (!stranded[d.src] && !stranded[d.dst]) {
        alive.push_back(d);
        alive_demand += d.demand;
      }
    double alive_frac = total_demand > 0.0 ? alive_demand / total_demand : 1.0;
    auto commodities = mcf::aggregate_to_switches(t, alive);
    if (commodities.empty()) {
      *served = alive.empty() ? 0.0 : alive_frac;
      return 0.0;
    }
    mcf::McfOptions mo;
    mo.epsilon = eps;
    mo.allow_unreachable = true;
    mo.max_augmentations = static_cast<std::uint64_t>(mcf_budget);
    mo.compute_upper_bound = bench::selfcheck_enabled();
    auto r = mcf::max_concurrent_flow(t.graph(), commodities, mo);
    if (bench::selfcheck_enabled()) {
      check::CertifyOptions copt;
      copt.epsilon = eps;
      bench::selfcheck_record(check::certify_served(t.graph(), commodities, r, copt),
                              "mcf served");
    }
    *served = alive_frac * r.served_fraction;
    return r.lambda_lower;
  };

  util::Table table({"t", "event", "track", "down sw", "down links", "stranded", "apl",
                     "lambda", "served%"});
  auto report_track = [&](double t, const std::string& label, const char* track,
                          const fault::FaultState& st, const fault::DegradeResult& d,
                          bool mcf_now) {
    std::vector<char> stranded(d.topo.server_count(), 0);
    for (topo::ServerId s : d.stranded) stranded[s] = 1;
    auto subset = fault::largest_alive_component(d.topo, stranded);
    const double apl =
        subset.size() < 2 ? 0.0 : topo::server_apl_subset(d.topo, subset).average;
    table.begin_row();
    table.num(t, 2);
    table.add(label);
    table.add(track);
    table.integer(static_cast<std::int64_t>(st.down_switch_count()));
    table.integer(static_cast<std::int64_t>(st.down_pair_count()));
    table.integer(static_cast<std::int64_t>(d.stranded.size()));
    table.num(apl, 4);
    if (mcf_now) {
      double served = 0.0;
      double lambda = mcf_point(d.topo, stranded, &served);
      table.num(lambda, 5);
      table.num(100.0 * served, 1);
    } else {
      table.add("-");
      table.add("-");
    }
  };

  // Degraded-battery options: dead switches stay as isolated nodes with
  // their servers declared stranded.
  auto check_degraded_topo = [&](const fault::DegradeResult& d, const char* what) {
    if (!bench::selfcheck_enabled()) return;
    check::TopologyCheckOptions opts;
    opts.allow_isolated_switches = true;
    opts.declared_stranded = d.stranded;
    bench::check_topology(d.topo, what, opts);
  };

  std::uint64_t ctl_steps = 0, ctl_replans = 0, ctl_rollbacks = 0, ctl_deferrals = 0;
  std::size_t report_idx = 0;
  for (std::size_t i = 0; i < scenario.events.size(); ++i) {
    const fault::FaultEvent& e = scenario.events[i];
    if (ft_state.apply(e)) {
      const std::size_t dead = dead_clos_links();
      if (dead > ft_dead)
        links_cut += dead - ft_dead;
      else
        links_healed += ft_dead - dead;
      ft_dead = dead;
    }
    fault::EventOutcome out = ctl.on_event(e);
    ctl_steps += out.steps_applied;
    ctl_replans += out.replans;
    ctl_rollbacks += out.rolled_back ? 1 : 0;
    ctl_deferrals += out.deferred ? 1 : 0;
    if (convert_rate > 0) ctl_steps += ctl.advance(static_cast<std::size_t>(convert_rate));
    // The tentpole acceptance bar: full validity after *every* event,
    // including the ones that land mid-reconfiguration.
    if (bench::selfcheck_enabled())
      bench::selfcheck_record(ctl.self_check(), "resilient");
    if (i + 1 != scenario.events.size() &&
        (i + 1) % static_cast<std::size_t>(report_every) != 0)
      continue;

    bool mcf_now = mcf_every > 0 && report_idx % static_cast<std::size_t>(mcf_every) == 0;
    ++report_idx;
    std::string label = event_label(e);

    fault::DegradeResult d_fat = fault::degrade(clos, ft_state);
    check_degraded_topo(d_fat, "fat degraded");
    if (bench::selfcheck_enabled()) {
      // The event-tracked dead-link count must agree with the rebuild.
      check::Report r;
      r.note_check();
      if (ft_dead != d_fat.dropped_links)
        r.add("fault.dead_links", "tracked dead links != degrade dropped links");
      bench::selfcheck_record(r, "fat dead links");
    }
    report_track(e.time, label, "fat", ft_state, d_fat, mcf_now);

    fault::DegradeResult d_flat = ctl.degraded();
    check_degraded_topo(d_flat, "flat degraded");
    report_track(e.time, label, "flat", ctl.fault_state(), d_flat, mcf_now);
  }

  // Drain any still-parked conversion work, then verify conservation: every
  // generated failure carries its repair, so both plants end all-up.
  ctl.run_to_completion();
  if (bench::selfcheck_enabled()) {
    bench::selfcheck_record(fault::check_conserved(ft_state), "fat conserved");
    bench::selfcheck_record(fault::check_conserved(ctl.fault_state()), "flat conserved");
    bench::selfcheck_record(ctl.self_check(), "resilient final");
  }
  table.print("Chaos: availability timeline, fat-tree reroute vs flat-tree reconversion");

  util::Table summary({"track", "final stranded", "steps", "replans", "rollbacks",
                       "deferred", "links cut", "links healed"});
  summary.begin_row();
  summary.add("fat");
  summary.integer(static_cast<std::int64_t>(fault::degrade(clos, ft_state).stranded.size()));
  summary.add("-");
  summary.add("-");
  summary.add("-");
  summary.add("-");
  summary.integer(static_cast<std::int64_t>(links_cut));
  summary.integer(static_cast<std::int64_t>(links_healed));
  summary.begin_row();
  summary.add("flat");
  summary.integer(static_cast<std::int64_t>(ctl.stranded_servers().size()));
  summary.integer(static_cast<std::int64_t>(ctl_steps));
  summary.integer(static_cast<std::int64_t>(ctl_replans));
  summary.integer(static_cast<std::int64_t>(ctl_rollbacks));
  summary.integer(static_cast<std::int64_t>(ctl_deferrals));
  summary.add("-");
  summary.add("-");
  summary.print("Chaos summary");
  std::puts("Identical traces; the flat-tree track additionally absorbs faults that\n"
            "land mid-reconfiguration (bounded replans, pair-atomic rollback).");
  return bench::selfcheck_exit();
}
