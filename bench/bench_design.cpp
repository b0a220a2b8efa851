// Automated conversion-plan search (src/design, DESIGN.md section 12).
//
// Scores the three uniform conversion modes plus the fixed De Bruijn flat
// baseline against the default mixed workload (pod-spanning broadcast,
// small all-to-all, skewed ML-training rings), then runs the
// deterministic annealing search over hybrid-zone layouts and reports the
// objective trajectory, the accepted-move log, and the winner's cold
// certified score. The acceptance bar: the searched layout's certified
// objective beats the best single uniform mode.
//
// Determinism: stdout is byte-identical across --threads, obs on/off, and
// repeated runs (every random choice is an Rng::substream draw, and the
// search scores each candidate exactly as a cold solve would — see
// docs/design_search.md). --summary-json=PATH writes the machine-readable
// summary (BENCH_design.json in CI, schema flattree.bench_design.v1).

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "design/design.hpp"
#include "obs/json.hpp"
#include "topo/apl.hpp"
#include "topo/debruijn.hpp"

using namespace flattree;

namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// One-line zone rendering for tables: "[0,4)=global-random [4,8)=clos".
std::string layout_string(const design::Candidate& c) {
  std::string out;
  for (const design::Zone& z : c.zones()) {
    if (!out.empty()) out += " ";
    out += "[" + std::to_string(z.begin) + "," + std::to_string(z.end) +
           ")=" + core::to_string(z.mode);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t k = 8, iters = 32, seed = 1, trace_every = 4;
  double eps = 0.2, temp = 0.05, cooling = 0.92;
  std::string summary_json;
  std::int64_t threads = 0;
  bool selfcheck = false;
  util::CliParser cli(
      "Conversion-plan design search: annealing over hybrid-zone layouts "
      "vs uniform modes and a De Bruijn flat baseline.");
  cli.add_int("k", &k, "fat-tree parameter of the convertible plant");
  cli.add_int("iters", &iters, "annealing iterations");
  cli.add_int("seed", &seed, "RNG seed (workload mix and move stream)");
  cli.add_double("eps", &eps, "Garg-Koenemann epsilon");
  cli.add_double("temp", &temp, "initial temperature (fraction of best uniform)");
  cli.add_double("cooling", &cooling, "geometric cooling factor per iteration");
  cli.add_int("trace-every", &trace_every, "trajectory table sampling stride");
  cli.add_string("summary-json", &summary_json,
                 "write the machine-readable summary to this path");
  bench::add_threads_flag(cli, &threads);
  bench::add_selfcheck_flag(cli, &selfcheck);
  bench::ObsFlags obsf;
  bench::add_obs_flags(cli, &obsf);
  if (!cli.parse(argc, argv)) return cli.exit_code();
  if (!bench::k_in_range("bench_design", k)) return 2;
  bench::apply_threads(threads);
  bench::apply_selfcheck(selfcheck);
  bench::ObsScope obs_run(obsf, argc, argv);
  obs_run.set_int("threads", threads);
  obs_run.set_int("seed", seed);
  obs_run.set_double("eps", eps);
  obs_run.set_int("iters", iters);

  const auto ku = static_cast<std::uint32_t>(k);
  core::FlatTreeNetwork net = bench::profiled_network(ku);
  design::WorkloadMix mix = design::WorkloadMix::defaults();
  mix.seed = static_cast<std::uint64_t>(seed);
  mix.epsilon = eps;

  design::SearchOptions opt;
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.iterations = static_cast<std::uint32_t>(iters);
  opt.initial_temperature = temp;
  opt.cooling = cooling;

  design::SearchResult result = design::search(net, mix, opt);

  // Fixed flat baseline: De Bruijn fabric sized against fat-tree(k), same
  // server-id space, scored cold on the same mix (affinities fall back to
  // the whole fabric — a flat design has no zones to bind to).
  topo::Topology debruijn = topo::build_debruijn_like_fat_tree(ku);
  check::Report db_report;
  design::Score db_score = design::score_topology_cold(
      debruijn,
      design::mix_demands_all(static_cast<std::uint32_t>(debruijn.server_count()),
                              net.params().servers_per_pod(), mix),
      eps, &db_report);
  bench::selfcheck_record(db_report, "debruijn baseline");

  util::Table baselines({"design", "layout", "objective", "upper", "apl",
                         "demands", "certified"});
  for (const design::UniformScore& u : result.uniforms) {
    baselines.begin_row();
    baselines.add("uniform");
    baselines.add(core::to_string(u.mode));
    baselines.num(u.score.objective);
    baselines.num(u.score.lambda_upper);
    baselines.num(u.score.apl);
    baselines.integer(static_cast<std::int64_t>(u.score.demands));
    baselines.add(u.certified ? "yes" : "NO");
  }
  unsigned db_dim = 0;
  while ((std::size_t{1} << (db_dim + 1)) <= debruijn.switch_count()) ++db_dim;
  baselines.begin_row();
  baselines.add("debruijn");
  baselines.add("flat B(2," + std::to_string(db_dim) + ")");
  baselines.num(db_score.objective);
  baselines.num(db_score.lambda_upper);
  baselines.num(db_score.apl);
  baselines.integer(static_cast<std::int64_t>(db_score.demands));
  baselines.add(db_report.ok() ? "yes" : "NO");
  baselines.begin_row();
  baselines.add("searched");
  baselines.add(layout_string(result.best));
  baselines.num(result.best_cold.objective);
  baselines.num(result.best_cold.lambda_upper);
  baselines.num(result.best_cold.apl);
  baselines.integer(static_cast<std::int64_t>(result.best_cold.demands));
  baselines.add(result.certified ? "yes" : "NO");
  baselines.print("Design search: mixed-workload objective (certified lambda lower bound)");

  util::Table trajectory({"iter", "temperature", "current", "best"});
  const std::uint32_t last_iter =
      result.trajectory.empty() ? 0 : result.trajectory.back().iteration;
  for (const design::TrajectoryPoint& p : result.trajectory) {
    // Sample every trace-every-th iteration, always keeping the last.
    if (p.iteration % static_cast<std::uint32_t>(trace_every) != 0 &&
        p.iteration != last_iter)
      continue;
    trajectory.begin_row();
    trajectory.integer(p.iteration);
    trajectory.num(p.temperature, 6);
    trajectory.num(p.current);
    trajectory.num(p.best);
  }
  trajectory.print("Objective trajectory");

  util::Table moves({"iter", "move", "objective"});
  for (const design::AcceptedMove& m : result.accepted_moves) {
    moves.begin_row();
    moves.integer(m.iteration);
    moves.add(design::to_string(m.move));
    moves.num(m.objective);
  }
  moves.print("Accepted moves");

  double uniform_best = 0.0;
  for (const design::UniformScore& u : result.uniforms)
    if (u.score.objective > uniform_best) uniform_best = u.score.objective;
  const bool beats = result.best_cold.objective > uniform_best;
  std::printf("moves: accepted=%u rejected=%u skipped=%u  (best uniform: %s)\n",
              result.accepted, result.rejected, result.skipped,
              core::to_string(result.best_uniform));
  std::printf("searched layout %s the best uniform mode: %s vs %s\n",
              beats ? "BEATS" : "does NOT beat",
              util::format_double(result.best_cold.objective).c_str(),
              util::format_double(uniform_best).c_str());
  std::printf("winner layout:\n%s", result.best.encode().c_str());

  if (!summary_json.empty()) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("schema");
    w.string_value("flattree.bench_design.v1");
    w.key("k");
    w.int_value(k);
    w.key("seed");
    w.int_value(seed);
    w.key("iters");
    w.int_value(iters);
    w.key("eps");
    w.double_value(eps);
    w.key("accepted");
    w.uint_value(result.accepted);
    w.key("rejected");
    w.uint_value(result.rejected);
    w.key("skipped");
    w.uint_value(result.skipped);
    w.key("uniforms");
    w.begin_array();
    for (const design::UniformScore& u : result.uniforms) {
      w.begin_object();
      w.key("mode");
      w.string_value(core::to_string(u.mode));
      w.key("objective");
      w.double_value(u.score.objective);
      w.key("apl");
      w.double_value(u.score.apl);
      w.key("certified");
      w.bool_value(u.certified);
      w.end_object();
    }
    w.end_array();
    w.key("debruijn");
    w.begin_object();
    w.key("objective");
    w.double_value(db_score.objective);
    w.key("apl");
    w.double_value(db_score.apl);
    w.key("certified");
    w.bool_value(db_report.ok());
    w.end_object();
    w.key("best");
    w.begin_object();
    w.key("objective");
    w.double_value(result.best_cold.objective);
    w.key("apl");
    w.double_value(result.best_cold.apl);
    w.key("certified");
    w.bool_value(result.certified);
    w.key("layout");
    w.begin_array();
    for (core::Mode m : result.best.pod_modes()) w.string_value(core::to_string(m));
    w.end_array();
    w.end_object();
    w.key("beats_uniform");
    w.bool_value(beats);
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(baselines.to_csv() + trajectory.to_csv() + moves.to_csv())));
    w.key("digest");
    w.string_value(digest);
    w.end_object();
    std::ofstream f(summary_json);
    if (!f) {
      std::fprintf(stderr, "bench_design: cannot open --summary-json '%s'\n",
                   summary_json.c_str());
      return 2;
    }
    f << w.str() << '\n';
  }
  return bench::selfcheck_exit();
}
