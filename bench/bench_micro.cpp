// Microbenchmarks (google-benchmark): cost of the primitives behind the
// figure harnesses — topology construction, conversion, BFS/APL, and the
// max-concurrent-flow solver — plus serial-vs-parallel versions of the two
// embarrassingly parallel kernels (per-source BFS APSP/APL and the
// Garg-Koenemann commodity phase).
//
// Besides the google-benchmark suite, `--exec-json <path>` runs a fixed
// serial-vs-parallel sweep and writes machine-readable results
// (k, threads, wall-ms, speedup, determinism check) so the perf trajectory
// of the exec runtime is tracked per PR:
//
//   $ ./bench_micro --exec-json ../BENCH_exec.json

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/controller.hpp"
#include "exec/parallel_for.hpp"
#include "graph/bfs.hpp"
#include "graph/metrics.hpp"
#include "graph/multi_bfs.hpp"
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

// Serial vs parallel: args are {k, threads}. The same kernel runs on a
// global pool of the given size; results are bit-identical across rows.
void BM_ServerAplThreads(benchmark::State& state) {
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  exec::set_global_threads(static_cast<unsigned>(state.range(1)));
  topo::FatTree ft = topo::build_fat_tree(k);
  for (auto _ : state) benchmark::DoNotOptimize(topo::server_apl(ft.topo));
  exec::set_global_threads(1);
}
BENCHMARK(BM_ServerAplThreads)
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 4})
    ->Args({24, 1})
    ->Args({24, 4})
    ->UseRealTime();

void BM_ApspThreads(benchmark::State& state) {
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  exec::set_global_threads(static_cast<unsigned>(state.range(1)));
  topo::FatTree ft = topo::build_fat_tree(k);
  for (auto _ : state) benchmark::DoNotOptimize(graph::apsp_distances(ft.topo.graph()));
  exec::set_global_threads(1);
}
BENCHMARK(BM_ApspThreads)->Args({16, 1})->Args({16, 2})->Args({16, 4})->UseRealTime();

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

void BM_MaxConcurrentFlowThreads(benchmark::State& state) {
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  exec::set_global_threads(static_cast<unsigned>(state.range(1)));
  topo::FatTree ft = topo::build_fat_tree(k);
  auto commodities = broadcast_commodities(ft.topo, k, 100);
  mcf::McfOptions opt;
  opt.epsilon = 0.15;
  for (auto _ : state)
    benchmark::DoNotOptimize(mcf::max_concurrent_flow(ft.topo.graph(), commodities, opt));
  exec::set_global_threads(1);
}
BENCHMARK(BM_MaxConcurrentFlowThreads)->Args({12, 1})->Args({12, 2})->Args({12, 4})->UseRealTime();

// ---------------------------------------------------------------------------
// --exec-json sweep: fixed workloads timed at several thread counts.

double wall_ms(const std::function<void()>& fn) {
  // Best of three: wall-clock on a shared machine is noisy and we want the
  // achievable time, not the mean of the noise.
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

struct ExecEntry {
  std::string bench;
  std::uint32_t k;
  unsigned threads;
  double ms;
  double speedup;
  bool identical;  ///< result bit-identical to the threads=1 run
};

// Batched-vs-scalar APL on fat-trees: deterministic operation counters are
// the headline (wall-clock on the 1-core container is untrustworthy).
// `scalar_settles` counts nodes settled one BFS per source;
// `batched_settles` counts frontier node expansions — one expansion
// advances up to 64 sources at once, which is exactly the batching win.
struct BitBfsEntry {
  std::uint32_t k;
  double scalar_ms;
  double batched_ms;
  std::uint64_t scalar_settles;
  std::uint64_t batched_settles;
  std::uint64_t words_touched;
  double settle_ratio;  ///< scalar_settles / batched_settles
  bool identical;       ///< batched APL bitwise equal to the scalar kernel
};

int run_exec_sweep(const std::string& path) {
  const std::vector<unsigned> thread_counts{1, 2, 4, 8};
  std::vector<ExecEntry> entries;

  // APL/APSP kernel (the Figure 5/6 hot path).
  for (std::uint32_t k : {16u, 24u}) {
    topo::FatTree ft = topo::build_fat_tree(k);
    double base_ms = 0.0, base_apl = 0.0;
    for (unsigned t : thread_counts) {
      exec::set_global_threads(t);
      double apl = 0.0;
      double ms = wall_ms([&] { apl = topo::server_apl(ft.topo).average; });
      if (t == 1) {
        base_ms = ms;
        base_apl = apl;
      }
      entries.push_back({"apl_fat_tree", k, t, ms, base_ms / ms, apl == base_apl});
    }
  }

  // Garg-Koenemann broadcast throughput (the Figure 7/8 hot path).
  for (std::uint32_t k : {8u, 12u}) {
    topo::FatTree ft = topo::build_fat_tree(k);
    auto commodities = broadcast_commodities(ft.topo, k, 100);
    mcf::McfOptions opt;
    opt.epsilon = 0.12;
    double base_ms = 0.0, base_lo = 0.0, base_up = 0.0;
    for (unsigned t : thread_counts) {
      exec::set_global_threads(t);
      double lo = 0.0, up = 0.0;
      double ms = wall_ms([&] {
        auto r = mcf::max_concurrent_flow(ft.topo.graph(), commodities, opt);
        lo = r.lambda_lower;
        up = r.lambda_upper;
      });
      if (t == 1) {
        base_ms = ms;
        base_lo = lo;
        base_up = up;
      }
      entries.push_back(
          {"gk_broadcast", k, t, ms, base_ms / ms, lo == base_lo && up == base_up});
    }
  }
  exec::set_global_threads(1);

  // Bit-parallel batched BFS vs one-BFS-per-source, same weighted-APL
  // workload and bitwise-compared results. k=48/64 only run the batched
  // engine within reasonable time because of it; the scalar baseline is
  // still measured to keep the comparison honest at every size.
  std::vector<BitBfsEntry> bitbfs;
  for (std::uint32_t k : {16u, 24u, 48u, 64u}) {
    topo::FatTree ft = topo::build_fat_tree(k);
    BitBfsEntry e{};
    e.k = k;
    graph::AplResult scalar{};
    graph::reset_scalar_bfs_settled();
    e.scalar_ms = wall_ms([&] {
      scalar = graph::weighted_apl_scalar(ft.topo.graph(), ft.topo.servers_per_switch(),
                                          /*offset=*/2, /*same_node_dist=*/2);
    });
    e.scalar_settles = graph::scalar_bfs_settled() / 3;  // wall_ms runs 3 reps
    graph::AplResult batched{};
    graph::reset_multi_bfs_stats();
    e.batched_ms = wall_ms([&] { batched = topo::server_apl(ft.topo); });
    graph::MultiBfsStats stats = graph::multi_bfs_stats();
    e.batched_settles = stats.node_expansions / 3;
    e.words_touched = stats.words_touched / 3;
    e.settle_ratio = e.batched_settles
                         ? static_cast<double>(e.scalar_settles) /
                               static_cast<double>(e.batched_settles)
                         : 0.0;
    e.identical = scalar.average == batched.average && scalar.pairs == batched.pairs &&
                  scalar.max_dist == batched.max_dist;
    bitbfs.push_back(e);
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"hardware_threads\": %u,\n  \"entries\": [\n",
               exec::hardware_threads());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ExecEntry& e = entries[i];
    std::fprintf(f,
                 "    {\"bench\": \"%s\", \"k\": %u, \"threads\": %u, "
                 "\"wall_ms\": %.3f, \"speedup\": %.3f, \"identical\": %s}%s\n",
                 e.bench.c_str(), e.k, e.threads, e.ms, e.speedup,
                 e.identical ? "true" : "false", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"bitbfs\": [\n");
  for (std::size_t i = 0; i < bitbfs.size(); ++i) {
    const BitBfsEntry& e = bitbfs[i];
    std::fprintf(f,
                 "    {\"k\": %u, \"scalar_ms\": %.3f, \"batched_ms\": %.3f, "
                 "\"scalar_settles\": %llu, \"batched_settles\": %llu, "
                 "\"words_touched\": %llu, \"settle_ratio\": %.2f, \"identical\": %s}%s\n",
                 e.k, e.scalar_ms, e.batched_ms,
                 static_cast<unsigned long long>(e.scalar_settles),
                 static_cast<unsigned long long>(e.batched_settles),
                 static_cast<unsigned long long>(e.words_touched), e.settle_ratio,
                 e.identical ? "true" : "false", i + 1 < bitbfs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu entries)\n", path.c_str(), entries.size() + bitbfs.size());
  bool all_identical = true;
  for (const ExecEntry& e : entries) all_identical = all_identical && e.identical;
  for (const BitBfsEntry& e : bitbfs) all_identical = all_identical && e.identical;
  std::printf("determinism across thread counts: %s\n", all_identical ? "OK" : "BROKEN");
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --exec-json / --metrics-json / --trace ([=| ]<path> forms)
  // before google-benchmark sees the args (it owns the remaining argv).
  std::string exec_json, metrics_json, trace_path;
  bench::ArgPeeler peeler;
  peeler.add_string("--exec-json", &exec_json,
                    "write the exec scaling sweep as JSON and exit");
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
  if (!exec_json.empty()) return run_exec_sweep(exec_json);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
