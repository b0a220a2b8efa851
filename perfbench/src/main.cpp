// perfbench: the repository benchmark. One process runs all four workloads
// (fig-throughput, convert-apl, svc-stream, packet-des); --workload picks
// the one that gets most of the measured time, so every end-to-end metric
// is reported by every run and each workload's own metrics are measured
// longest in its own run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-file PATH]
//   perfbench --inputs --seed N      digest of every generated input
//   perfbench --selftest             percentile-rule unit checks
//
// --trace 0 measures with obs and tracing off. After one warm-up unit per
// workload, units of the four workloads interleave over the whole run
// (each next unit goes to the workload furthest behind its share of the
// time and its minimum unit count), so every metric samples the whole run
// rather than one stretch of it. Spare set-ups of all four workloads
// interleave the same way; setup_s is the median of every set-up. Every
// output is checked, then the end-to-end metrics are printed. --trace 1
// runs a fixed amount of work per workload four times, untraced (a warm-up
// pass), untraced, traced, untraced, and prints per-layer metrics from the
// traced pass: self time per layer, span totals, the library's
// deterministic counters, and the tracing overhead per workload (traced
// wall against the mean untraced wall). The last stdout line is the JSON
// result.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <string>
#include <vector>

#include "exec/parallel_for.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "selftime.hpp"

using namespace perfbench;

namespace {

const char* const kWorkloads[] = {"fig-throughput", "convert-apl", "svc-stream", "packet-des"};
constexpr std::size_t kWorkloadCount = std::size(kWorkloads);
constexpr double kFocusShare = 0.4;  // of --seconds; the other three share the rest
constexpr std::size_t kSetupEvery = 3;  // units between spare set-ups
constexpr unsigned kThreads = 4;  // exec pool size, sized for a 4-thread box

// Counters the libraries already keep; all deterministic for a fixed seed
// and amount of work.
const char* const kCounters[] = {
    "graph.bfs.nodes_visited",  "graph.bitbfs.words_touched", "mcf.gk.dijkstra_runs",
    "mcf.gk.augmentations",     "mcf.gk.stale_retrees",       "mcf.gk.phases",
    "inc.apl.avoided_visits",   "inc.mcf.exact_resumes",      "exec.pool.chunks",
    "sim.packet.events_processed", "svc.slo.truncated_solves", "te.wcmp.rules"};

// Inclusive span totals reported as layer timings: metric <- span names.
const std::pair<const char*, std::vector<const char*>> kSpanTotals[] = {
    {"topo.build_ms", {"topo.build"}},
    {"core.plan_ms", {"core.plan", "core.apply"}},
    {"core.materialize_ms", {"core.materialize"}},
    {"core.recovery_ms", {"core.recovery", "core.apply_failures"}},
    {"graph.apl_ms", {"graph.apl"}},
    {"workload.gen_ms", {"workload.clusters", "workload.flows"}},
    {"mcf.aggregate_ms", {"mcf.aggregate_to_switches"}},
    {"routing.ecmp_ms", {"routing.ecmp"}},
    {"te.wcmp_ms", {"te.compile_wcmp_paths"}},
};

const char* const kLayers[] = {"topo", "core",  "graph", "workload", "mcf", "inc",   "exec",
                               "routing", "te", "sim", "svc", "durable", "fault", "gen",
                               "check"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_file = "perfbench-trace.jsonl";
  bool inputs = false;
  bool selftest = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (flag == "--inputs") a.inputs = true;
    else if (flag == "--selftest") a.selftest = true;
    else if ((v = value()) == nullptr) return false;
    else if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v);
    else if (flag == "--trace") a.trace = std::atoi(v);
    else if (flag == "--trace-file") a.trace_file = v;
    else return false;
  }
  return a.seconds > 0.0 && (a.trace == 0 || a.trace == 1);
}

std::vector<std::unique_ptr<Stage>> make_stages() {
  std::vector<std::unique_ptr<Stage>> v;
  v.push_back(make_fig_throughput());
  v.push_back(make_convert_apl());
  v.push_back(make_svc_stream());
  v.push_back(make_packet_des());
  return v;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int selftest() {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("selftest FAILED: %s\n", what);
      ++bad;
    }
  };
  std::vector<double> v(999);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  Tail t = tail(v);
  expect(t.pct < 99.0 && t.value == 989.0, "999 samples give no p99, ten beyond the tail");
  v.push_back(1000.0);
  t = tail(v);
  expect(t.pct == 99.0 && t.value == 990.0, "1000 samples give p99 with ten beyond");
  t = tail({5.0, 1.0, 4.0, 2.0, 3.0});
  expect(t.pct == 100.0 && t.value == 5.0, "below 20 samples the tail is the maximum");
  expect(median({3.0, 1.0, 2.0}) == 2.0 && median({1.0, 2.0, 3.0, 4.0}) == 2.5, "median");
  expect(quantile({1.0, 2.0, 3.0, 4.0}, 0.25) == 1.0, "nearest-rank quantile");
  expect(layer_of("gk.phase") == "mcf" && layer_of("svc.recover") == "durable" &&
             layer_of("svc.eval") == "svc",
         "span layers");
  std::printf("selftest %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

void print_result(const Outcome& out, const Metrics& m) {
  flattree::obs::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.bool_value(out.failed == 0);
  w.key("attempted");
  w.uint_value(out.attempted);
  w.key("failed");
  w.uint_value(out.failed);
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, metric] : m.all()) {
    w.key(name);
    w.begin_object();
    w.key("value");
    w.double_value(metric.value);
    w.key("unit");
    w.string_value(metric.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

void check_all(std::vector<std::unique_ptr<Stage>>& stages, Outcome& out) {
  for (auto& s : stages) {
    Outcome o;
    s->check(o);
    out.attempted += o.attempted;
    out.failed += o.failed;
    for (const std::string& e : o.errors) std::fprintf(stderr, "%s: %s\n", s->name(), e.c_str());
  }
}

double stage_share(const Stage& s, const Args& a) {
  return s.name() == a.workload ? kFocusShare : (1.0 - kFocusShare) / 3.0;
}

/// Builds all four workloads and returns the set-up wall time.
double timed_setup(std::vector<std::unique_ptr<Stage>>& stages, std::uint64_t seed) {
  stages = make_stages();
  const auto t0 = Clock::now();
  for (auto& s : stages) s->setup(seed);
  return seconds_since(t0);
}

int run_untraced(const Args& a) {
  std::vector<std::unique_ptr<Stage>> stages;
  std::vector<double> setups{timed_setup(stages, a.seed)};
  std::printf("perfbench: workload %s, seed %llu, %.1f s, %u threads\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, kThreads);
  for (auto& s : stages) s->warm_up();
  // Progress of a stage: the smaller of its share of the time and of its
  // minimum units; it is done at 1. The stage furthest behind goes next.
  std::vector<double> used_s(stages.size(), 0.0);
  std::vector<std::size_t> units(stages.size(), 0);
  auto progress = [&](std::size_t i) {
    return std::min(used_s[i] / (stage_share(*stages[i], a) * a.seconds),
                    static_cast<double>(units[i]) / stages[i]->min_units());
  };
  for (std::size_t done = 1;; ++done) {
    std::size_t next = 0;
    for (std::size_t i = 1; i < stages.size(); ++i)
      if (progress(i) < progress(next)) next = i;
    if (progress(next) >= 1.0) break;
    const auto t0 = Clock::now();
    stages[next]->unit();
    used_s[next] += seconds_since(t0);
    ++units[next];
    if (done % kSetupEvery == 0) {
      std::vector<std::unique_ptr<Stage>> spare;
      setups.push_back(timed_setup(spare, a.seed));
    }
  }
  for (std::size_t i = 0; i < stages.size(); ++i)
    std::printf("  %-15s %zu units in %.2f s\n", stages[i]->name(), units[i], used_s[i]);
  Outcome out;
  check_all(stages, out);

  Metrics m;
  m.set("setup_s", median(setups), "s");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  m.set("ok_frac",
        out.attempted > 0 ? 1.0 - static_cast<double>(out.failed) / out.attempted : 0.0,
        "ratio");
  for (auto& s : stages) s->report_e2e(m);
  std::printf("  setup_s median of %zu: %.4f (spread %.3f)\n", setups.size(), median(setups),
              rel_iqr(setups));
  for (const auto& [name, metric] : m.all())
    std::printf("  %-22s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  print_result(out, m);
  return out.failed == 0 ? 0 : 1;
}

int run_traced(const Args& a) {
  namespace obs = flattree::obs;
  // A fixed amount of work per stage, so the counters repeat.
  auto pass = [&](Stage& s) {
    s.setup(a.seed);
    s.warm_up();
    for (std::size_t u = 0; u < (s.min_units() + 1) / 2; ++u) s.unit();
  };
  // Untraced passes (obs off) of exactly the work the traced pass does,
  // one before and one after it, so drift over the run cancels. A first
  // pass, not timed, takes the cost of touching fresh memory.
  std::vector<double> wall_a(kWorkloadCount, 0.0);
  auto untraced_pass = [&](double weight) {
    auto stages = make_stages();
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const auto t0 = Clock::now();
      pass(*stages[i]);
      wall_a[i] += weight * seconds_since(t0);
    }
  };
  untraced_pass(0.0);
  untraced_pass(0.5);
  // The traced pass: obs metrics and span tracing on.
  obs::reset_metrics();
  obs::set_enabled(true);
  obs::start_tracing();
  auto stages = make_stages();
  std::vector<double> wall_b;
  const auto b0 = Clock::now();
  for (auto& s : stages) {
    const auto t0 = Clock::now();
    pass(*s);
    wall_b.push_back(seconds_since(t0));
  }
  const double pass_b_s = seconds_since(b0);
  Outcome out;
  check_all(stages, out);
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  obs::set_enabled(false);
  obs::stop_tracing();
  untraced_pass(0.5);
  TraceSummary ts;
  const bool wrote = obs::write_trace(a.trace_file);
  const bool read = wrote && summarize_trace(a.trace_file, ts);
  std::remove(a.trace_file.c_str());
  if (!read) {
    std::fprintf(stderr, "perfbench: cannot write or read the trace at %s\n",
                 a.trace_file.c_str());
    return 1;
  }

  Metrics m;
  auto counter = [&](const std::string& name) -> double {
    for (const auto& [n, v] : snap.counters)
      if (n == name) return static_cast<double>(v);
    return 0.0;
  };
  std::uint64_t digest = fnv1a("");
  std::printf("perfbench traced: workload %s, seed %llu, %zu spans (%zu dropped)\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), ts.spans,
              ts.dropped);
  for (const char* c : kCounters) {
    m.set(c, counter(c), "count");
    digest = fnv1a(std::string(c) + "=" + std::to_string(counter(c)) + ";", digest);
  }
  std::printf("  deterministic counters digest %016llx\n",
              static_cast<unsigned long long>(digest));
  m.set("mcf.augs_per_dijkstra",
        counter("mcf.gk.augmentations") / std::max(1.0, counter("mcf.gk.dijkstra_runs")),
        "ratio");
  m.set("exec.busy_frac",
        counter("exec.pool.busy_ns") / (1e9 * kThreads * pass_b_s), "ratio");
  const double sim_s = ts.total_ms["sim.packet_run"] / 1e3;
  m.set("sim.events_per_s",
        sim_s > 0.0 ? counter("sim.packet.events_processed") / sim_s : 0.0, "1/s");
  m.set("sim.events_per_pkt",
        counter("sim.packet.events_processed") /
            std::max(1.0, counter("sim.packet.injected")),
        "ratio");
  for (const auto& [metric, names] : kSpanTotals) {
    double total = 0.0;
    for (const char* n : names) total += ts.total_ms[n];
    m.set(metric, total, "ms");
  }
  for (const char* layer : kLayers)
    m.set(std::string("self.") + layer + "_ms", ts.self_ms[layer], "ms");
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const double overhead = wall_b[i] / wall_a[i] - 1.0;
    m.set(std::string("trace.overhead.") + stages[i]->name(), overhead, "ratio");
    std::printf("  %-15s untraced %.3f s, traced %.3f s, overhead %+.2f%%\n",
                stages[i]->name(), wall_a[i], wall_b[i], 100.0 * overhead);
  }
  for (auto& s : stages) s->report_layers(m);
  for (const auto& [name, metric] : m.all())
    std::printf("  %-36s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  print_result(out, m);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Freed memory stays in the process. On a VM, returning pages to the
  // kernel and faulting them back makes every timing slower and far
  // noisier than the code under test (glibc: no mmap below 32 MiB, no trim).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, -1);
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-file PATH] | --inputs --seed N | --selftest\n");
    return 2;
  }
  if (a.selftest) return selftest();
  flattree::exec::set_global_threads(kThreads);
  if (a.inputs) {
    for (auto& s : make_stages()) {
      s->setup(a.seed);
      const std::string text = s->inputs_text();
      std::printf("%s %016llx %zu\n", s->name(),
                  static_cast<unsigned long long>(fnv1a(text)), text.size());
    }
    return 0;
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || a.workload == w;
  if (!known) {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n", a.workload.c_str());
    return 2;
  }
  try {
    return a.trace == 1 ? run_traced(a) : run_untraced(a);
  } catch (const std::exception& e) {
    // A library call that throws leaves no result to report.
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
