// Microbenchmarks (google-benchmark): cost of the primitives behind the
// figure harnesses — topology construction, conversion, APL, and the
// max-concurrent-flow solver. Thread scaling and every other measured claim
// go through the repository benchmark, perfbench/ (interleaved, repeated
// runs; see perfbench/README.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/controller.hpp"
#include "obs/obs.hpp"
#include "mcf/garg_koenemann.hpp"
#include "topo/apl.hpp"
#include "topo/fat_tree.hpp"
#include "topo/random_graph.hpp"
#include "workload/traffic.hpp"

using namespace flattree;

namespace {

void BM_BuildFatTree(benchmark::State& state) {
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(topo::build_fat_tree(k));
}
BENCHMARK(BM_BuildFatTree)->Arg(8)->Arg(16)->Arg(32);

void BM_BuildFlatTreeGlobal(benchmark::State& state) {
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  core::FlatTreeConfig cfg;
  cfg.k = k;
  core::FlatTreeNetwork net(cfg);
  for (auto _ : state) benchmark::DoNotOptimize(net.build(core::Mode::GlobalRandom));
}
BENCHMARK(BM_BuildFlatTreeGlobal)->Arg(8)->Arg(16)->Arg(32);

void BM_BuildJellyfish(benchmark::State& state) {
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  util::Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(topo::build_jellyfish_like_fat_tree(k, rng));
}
BENCHMARK(BM_BuildJellyfish)->Arg(8)->Arg(16);

void BM_ServerApl(benchmark::State& state) {
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  topo::FatTree ft = topo::build_fat_tree(k);
  for (auto _ : state) benchmark::DoNotOptimize(topo::server_apl(ft.topo));
}
BENCHMARK(BM_ServerApl)->Arg(8)->Arg(16)->Arg(24);

// Plan preview from Clos; the second argument picks the target: 0 = all
// pods global, 1 = hybrid (half the pods global, the rest local).
void BM_ConversionPlan(benchmark::State& state) {
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  core::FlatTreeConfig cfg;
  cfg.k = k;
  core::Controller controller(cfg);
  const std::uint32_t pods = controller.network().params().pods();
  const std::vector<core::Mode> target =
      state.range(1) == 0 ? std::vector<core::Mode>(pods, core::Mode::GlobalRandom)
                          : core::ZonePartition::proportion(pods, 0.5).pod_modes;
  for (auto _ : state) benchmark::DoNotOptimize(controller.plan(target));
}
BENCHMARK(BM_ConversionPlan)
    ->Args({8, 0})
    ->Args({16, 0})
    ->Args({32, 0})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Unit(benchmark::kMillisecond);

std::vector<mcf::Commodity> broadcast_commodities(const topo::Topology& topo,
                                                  std::uint32_t k,
                                                  std::uint32_t cluster) {
  util::Rng rng(11);
  auto clusters = workload::make_clusters(
      static_cast<std::uint32_t>(topo.server_count()),
      std::min<std::uint32_t>(cluster, static_cast<std::uint32_t>(topo.server_count())),
      workload::Placement::Locality, k * k / 4, rng);
  auto demands = workload::cluster_traffic(clusters, workload::Pattern::Broadcast, rng);
  return mcf::aggregate_to_switches(topo, demands);
}

void BM_MaxConcurrentFlowBroadcast(benchmark::State& state) {
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  topo::FatTree ft = topo::build_fat_tree(k);
  auto commodities = broadcast_commodities(ft.topo, k, 100);
  mcf::McfOptions opt;
  opt.epsilon = 0.15;
  opt.compute_upper_bound = false;
  for (auto _ : state)
    benchmark::DoNotOptimize(mcf::max_concurrent_flow(ft.topo.graph(), commodities, opt));
}
BENCHMARK(BM_MaxConcurrentFlowBroadcast)->Arg(8)->Arg(12);

}  // namespace

int main(int argc, char** argv) {
  // Peel off --metrics-json / --trace ([=| ]<path> forms) before
  // google-benchmark sees the args (it owns the remaining argv).
  std::string metrics_json, trace_path;
  bench::ArgPeeler peeler;
  peeler.add_string("--metrics-json", &metrics_json,
                    "write a JSON run manifest (argv, seed, metrics)");
  peeler.add_string("--trace", &trace_path, "write a JSON-lines span trace");
  std::string peel_error;
  if (!peeler.peel(argc, argv, &peel_error)) {
    std::fprintf(stderr, "bench_micro: %s\nflags handled by bench_micro:\n%s",
                 peel_error.c_str(), peeler.usage().c_str());
    return 1;
  }
  // Anything left that isn't google-benchmark's (--benchmark_*) is an
  // unknown flag: fail with the full listing instead of silently ignoring.
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_", 12) == 0) continue;
    if (std::strcmp(argv[i], "--help") == 0) continue;  // google-benchmark prints usage
    std::fprintf(stderr,
                 "bench_micro: unknown flag '%s'\nflags handled by bench_micro:\n%s"
                 "plus google-benchmark's --benchmark_* flags "
                 "(--benchmark_filter=..., --benchmark_list_tests, ...)\n",
                 argv[i], peeler.usage().c_str());
    return 1;
  }
  obs::RunSession obs_run(argc, argv, metrics_json, trace_path);
  if (obs_run.active()) {
    obs::set_enabled(true);
    if (!trace_path.empty()) obs::start_tracing();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
