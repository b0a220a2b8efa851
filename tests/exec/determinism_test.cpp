// Thread-count invariance of the parallelized evaluation kernels: every
// number a bench reports must be bit-identical at --threads 1, 2, and 8.
// These tests run each kernel under global pools of those sizes and compare
// results with exact (bitwise) equality — no tolerances. The BenchEquivalence
// cases compare two sweep benches' stdout across thread counts end to end;
// FT_BENCH_DIR is injected by CMake, and they skip cleanly when the
// binaries are not built.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/parallel_for.hpp"
#include "mcf/commodity.hpp"
#include "mcf/garg_koenemann.hpp"
#include "topo/apl.hpp"
#include "topo/fat_tree.hpp"
#include "util/rng.hpp"
#include "workload/cluster.hpp"
#include "workload/traffic.hpp"

namespace flattree {
namespace {

const unsigned kThreadCounts[] = {1, 2, 8};

/// Restores a single-thread global pool when a test exits.
struct PoolGuard {
  ~PoolGuard() { exec::set_global_threads(1); }
};

TEST(Determinism, WeightedAplBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  topo::FatTree ft = topo::build_fat_tree(8);

  exec::set_global_threads(1);
  graph::AplResult base = topo::server_apl(ft.topo);
  EXPECT_GT(base.average, 0.0);

  for (unsigned threads : kThreadCounts) {
    exec::set_global_threads(threads);
    graph::AplResult r = topo::server_apl(ft.topo);
    EXPECT_EQ(r.average, base.average) << "threads=" << threads;
    EXPECT_EQ(r.pairs, base.pairs);
    EXPECT_EQ(r.max_dist, base.max_dist);
  }
}

/// Two broadcast clusters, so the instance has two sources and reaches GK.
std::vector<mcf::Commodity> broadcast_commodities(const topo::Topology& topo,
                                                  std::uint32_t k) {
  util::Rng rng(11);
  auto clusters = workload::make_clusters(
      static_cast<std::uint32_t>(topo.server_count()),
      static_cast<std::uint32_t>(topo.server_count()) / 2,
      workload::Placement::Locality, k * k / 4, rng);
  auto demands = workload::cluster_traffic(clusters, workload::Pattern::Broadcast, rng);
  return mcf::aggregate_to_switches(topo, demands);
}

TEST(Determinism, GargKoenemannBoundsBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  topo::FatTree ft = topo::build_fat_tree(6);
  auto commodities = broadcast_commodities(ft.topo, 6);
  mcf::McfOptions opt;
  opt.epsilon = 0.1;

  exec::set_global_threads(1);
  mcf::McfResult base = mcf::max_concurrent_flow(ft.topo.graph(), commodities, opt);
  EXPECT_GT(base.lambda_lower, 0.0);
  EXPECT_GT(base.phases, 0u);  // the GK path ran

  for (unsigned threads : kThreadCounts) {
    exec::set_global_threads(threads);
    mcf::McfResult r = mcf::max_concurrent_flow(ft.topo.graph(), commodities, opt);
    EXPECT_EQ(r.lambda_lower, base.lambda_lower) << "threads=" << threads;
    EXPECT_EQ(r.lambda_upper, base.lambda_upper) << "threads=" << threads;
    EXPECT_EQ(r.max_congestion, base.max_congestion);
    EXPECT_EQ(r.phases, base.phases);
    EXPECT_EQ(r.augmentations, base.augmentations);
    EXPECT_EQ(r.dijkstra_runs, base.dijkstra_runs);
    EXPECT_EQ(r.arc_flow, base.arc_flow);  // exact per-arc equality
    EXPECT_EQ(r.commodity_routed, base.commodity_routed);
    EXPECT_EQ(r.dual_length, base.dual_length);
  }
}

TEST(Determinism, ExceptionFromParallelKernelPropagates) {
  PoolGuard guard;
  // A disconnected weighted pair must throw out of the parallel APL loop at
  // any thread count.
  graph::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1);
  g.add_link(2, 3);
  std::vector<std::uint32_t> weight{1, 1, 1, 1};
  for (unsigned threads : kThreadCounts) {
    exec::set_global_threads(threads);
    EXPECT_THROW(graph::weighted_apl(g, weight, 2, 2), std::runtime_error);
  }
}

TEST(Determinism, SubstreamSeedingIndependentOfChunkSchedule) {
  PoolGuard guard;
  // The canonical parallel randomized-loop pattern: chunk i draws from
  // Rng::substream(seed, i). The collected draws must not depend on the
  // thread count.
  auto draws_at = [](unsigned threads) {
    exec::set_global_threads(threads);
    std::vector<std::uint64_t> out(64);
    exec::parallel_for(out.size(), [&](std::size_t i) {
      util::Rng rng = util::Rng::substream(123, i);
      out[i] = rng();
    });
    return out;
  };
  auto base = draws_at(1);
  EXPECT_EQ(draws_at(2), base);
  EXPECT_EQ(draws_at(8), base);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f != nullptr) std::fclose(f);
  return f != nullptr;
}

/// Runs `bench args > out 2>/dev/null`, returning the exit status.
int run(const std::string& bench, const std::string& args, const std::string& out) {
  std::string cmd = bench + " " + args + " > " + out + " 2>/dev/null";
  return std::system(cmd.c_str());
}

/// Runs `bench` with `args` at --threads 1 and 4; both must exit 0 with
/// the same stdout.
void expect_same_stdout_across_threads(const std::string& name, const std::string& args) {
  std::string bench = std::string(FT_BENCH_DIR) + "/" + name;
  if (!file_exists(bench)) GTEST_SKIP() << "bench binary not built: " << bench;

  std::string one_out = testing::TempDir() + name + "_t1.txt";
  std::string four_out = testing::TempDir() + name + "_t4.txt";
  ASSERT_EQ(run(bench, args + " --threads 1", one_out), 0);
  ASSERT_EQ(run(bench, args + " --threads 4", four_out), 0);
  std::string one = slurp(one_out);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, slurp(four_out));
  std::remove(one_out.c_str());
  std::remove(four_out.c_str());
}

TEST(BenchEquivalence, FailureSweepIsByteIdenticalAcrossThreads) {
  expect_same_stdout_across_threads("bench_failures", "--max-failures 4 --seeds 1");
}

TEST(BenchEquivalence, AblationSweepIsByteIdentical) {
  expect_same_stdout_across_threads("bench_ablation_mn", "--kmax 8");
}

TEST(BenchEquivalence, Fig8CellFanOutIsByteIdenticalAcrossThreads) {
  // Rows (k = 6 and 8) and their 8 cells each run as pool tasks.
  expect_same_stdout_across_threads("bench_fig8_alltoall", "--kmax 8 --kstep 2");
}

}  // namespace
}  // namespace flattree
