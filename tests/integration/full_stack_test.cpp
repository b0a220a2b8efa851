// Full-stack integration: controller-driven zoned conversion, FIB
// compilation and verification, and packet-level simulation — every layer
// of the library touched by one scenario.

#include <gtest/gtest.h>

#include "check/te_check.hpp"
#include "core/controller.hpp"
#include "core/recovery.hpp"
#include "core/zones.hpp"
#include "mcf/garg_koenemann.hpp"
#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "sim/packet_sim.hpp"
#include "te/wcmp.hpp"
#include "topo/serialize.hpp"
#include "workload/traffic.hpp"

namespace flattree {
namespace {

TEST(FullStack, ZonedConversionToVerifiedFibToPackets) {
  // 1. Controller converts to a 50/50 hybrid.
  core::FlatTreeConfig cfg;
  cfg.k = 8;
  core::Controller controller(cfg);
  core::ReconfigPlan plan =
      controller.apply(core::ZonePartition::proportion(8, 0.5));
  EXPECT_FALSE(plan.empty());
  topo::Topology t = controller.topology();

  // 2. Compile ECMP FIBs for every server pair and model-check them.
  routing::EcmpRouting routing(t.graph());
  auto pairs = routing::all_server_pairs(t);
  te::WeightedFib fib = te::compile_fib(t, routing, pairs);
  check::Report verification = check::validate_weighted_fib(t, fib, pairs);
  ASSERT_TRUE(verification.ok()) << verification.to_string();
  EXPECT_GT(fib.rule_count(), 0u);

  // 3. Drive a permutation burst through the verified tables.
  util::Rng rng(21);
  auto demands = workload::permutation_traffic(
      static_cast<std::uint32_t>(t.server_count()), rng);
  std::vector<sim::PacketFlow> flows;
  for (const auto& d : demands) flows.push_back({d.src, d.dst, 4, 0.0});
  sim::PacketSimConfig sim_cfg;
  sim_cfg.queue_packets = 0;  // infinite buffers: everything must arrive
  sim::PacketSimulator simulator(t, fib, sim_cfg);
  sim::PacketStats stats = simulator.run(flows);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.delivered, stats.injected);
  EXPECT_GT(stats.mean_delay, 0.0);
}

TEST(FullStack, FailRecoverRerouteResume) {
  // Convert to global RG, fail a server-hosting core, recover via
  // reconversion, recompile FIBs on the degraded network, and verify the
  // surviving fabric still routes every pair.
  core::FlatTreeConfig cfg;
  cfg.k = 8;
  core::FlatTreeNetwork net(cfg);
  auto configs = net.assign_configs(core::Mode::GlobalRandom);
  topo::Topology healthy = net.materialize(configs);

  core::FailureSet failures;
  auto weights = healthy.servers_per_switch();
  for (topo::NodeId v = 0; v < healthy.switch_count(); ++v)
    if (healthy.info(v).kind == topo::SwitchKind::Core && weights[v] > 0) {
      failures.failed_switches.push_back(v);
      break;
    }
  ASSERT_FALSE(failures.failed_switches.empty());

  core::RecoveryPlan plan = core::plan_recovery(net, configs, failures);
  EXPECT_TRUE(plan.unrecoverable.empty());
  core::DegradedTopology degraded =
      core::apply_failures(net.materialize(plan.configs), failures);
  ASSERT_TRUE(degraded.stranded_servers.empty());

  routing::EcmpRouting routing(degraded.topo.graph());
  auto pairs = routing::all_server_pairs(degraded.topo);
  te::WeightedFib fib = te::compile_fib(degraded.topo, routing, pairs);
  check::Report verification = check::validate_weighted_fib(degraded.topo, fib, pairs);
  EXPECT_TRUE(verification.ok()) << verification.to_string();
}

TEST(FullStack, SnapshotSurvivesSerializationAndSolvesIdentically) {
  // Serialize a converted topology, reload it, and check a throughput run
  // gives the identical certified bound.
  core::FlatTreeConfig cfg;
  cfg.k = 6;
  core::FlatTreeNetwork net(cfg);
  topo::Topology original = net.build(core::Mode::GlobalRandom);
  topo::Topology reloaded = topo::deserialize(topo::serialize(original));

  util::Rng rng(5);
  auto clusters = workload::make_clusters(
      static_cast<std::uint32_t>(original.server_count()), 20,
      workload::Placement::WeakLocality, 9, rng);
  auto demands = workload::cluster_traffic(clusters, workload::Pattern::AllToAll, rng);
  mcf::McfOptions opt;
  opt.epsilon = 0.1;
  auto a = mcf::max_concurrent_flow(original.graph(),
                                    mcf::aggregate_to_switches(original, demands), opt);
  auto b = mcf::max_concurrent_flow(reloaded.graph(),
                                    mcf::aggregate_to_switches(reloaded, demands), opt);
  EXPECT_DOUBLE_EQ(a.lambda_lower, b.lambda_lower);
  EXPECT_DOUBLE_EQ(a.lambda_upper, b.lambda_upper);
}

TEST(FullStack, GkScalesLinearlyWithCapacity) {
  // Property: doubling every capacity doubles lambda (both bounds).
  core::FlatTreeConfig cfg;
  cfg.k = 4;
  core::FlatTreeNetwork net(cfg);
  topo::Topology base = net.build(core::Mode::LocalRandom);

  topo::Topology scaled;
  for (topo::NodeId v = 0; v < base.switch_count(); ++v) {
    const auto& info = base.info(v);
    scaled.add_switch(info.kind, info.pod, info.index, info.ports);
  }
  for (graph::LinkId l = 0; l < base.link_count(); ++l) {
    const auto& link = base.graph().link(l);
    scaled.add_link(link.a, link.b, base.link_info(l).origin, link.capacity * 2.0);
  }
  for (topo::ServerId s = 0; s < base.server_count(); ++s) scaled.add_server(base.host(s));

  std::vector<mcf::ServerDemand> demands{{0, 9, 1.0}, {4, 13, 1.0}, {2, 6, 1.0}};
  mcf::McfOptions opt;
  opt.epsilon = 0.05;
  auto a = mcf::max_concurrent_flow(base.graph(),
                                    mcf::aggregate_to_switches(base, demands), opt);
  auto b = mcf::max_concurrent_flow(scaled.graph(),
                                    mcf::aggregate_to_switches(scaled, demands), opt);
  EXPECT_NEAR(b.lambda_lower, 2.0 * a.lambda_lower, 0.05 * b.lambda_lower);
  EXPECT_NEAR(b.lambda_upper, 2.0 * a.lambda_upper, 0.05 * b.lambda_upper);
}

}  // namespace
}  // namespace flattree
