// Service bench (ISSUE 6 tentpole): drives svc::Service in-process with a
// deterministic scripted session and reports request latencies against the
// SLO deadline budgets.
//
// The script is a pure function of --seed: build (fat-tree --k), install a
// generated traffic snapshot, then interleave deadline-tagged queries and
// what-ifs with fault batches drawn from fault::generate_scenario, a
// staged conversion driven in --convert-rate steps, and a final stats
// probe. Two result classes are printed separately:
//
//   * deterministic: per-op accepted/rejected counts, solver truncation
//     and certification tallies, and an FNV-1a digest of the full response
//     stream. These are byte-identical at any --threads count and with
//     observability on or off — the service's core promise, which the svc
//     test suite pins down.
//   * timing (marked as such): latency p50/p99/max and the SLO hit rate —
//     the fraction of deadline-tagged requests whose measured wall time
//     fit their deadline. Wall-clock numbers are machine-dependent by
//     nature and never feed the digest.
//
// The run also journals (v2 CRC framing) and snapshots (every 5 committed
// groups — an odd cadence, because the script's read batches commit at
// mutating boundaries, which are unsafe snapshot points and skipped),
// then times a full crash recovery of a second Service from the
// latest snapshot + journal; the recovery section reports deterministic
// size/group/fast-forward counts and a recovery_match bit (the recovered
// state re-encodes to the live state's snapshot byte-for-byte), plus a
// machine-dependent recover_ms row. docs/durability.md has the formats.
//
// --slo-json=PATH writes the summary (BENCH_svc.json in CI).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "fault/fault.hpp"
#include "svc/svc.hpp"

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

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

std::string event_json(const fault::FaultEvent& e) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("t");
  w.double_value(e.time);
  w.key("kind");
  w.string_value(fault::to_string(e.kind));
  w.key("a");
  w.uint_value(e.a);
  if (e.kind == fault::FaultKind::LinkDown || e.kind == fault::FaultKind::LinkUp) {
    w.key("b");
    w.uint_value(e.b);
  }
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t k = 8, seed = 1, cluster = 40, rounds = 6, events_per_round = 4;
  std::int64_t convert_rate = 8, batch = 8;
  double eps = 0.12, duration = 30.0;
  std::string slo_json, script_out;

  const util::IntRange count{0, bench::kMaxU32};
  util::CliParser cli("Service: scripted flattree-svc sessions, latency vs SLO budgets.");
  cli.add_int("k", &k, bench::kK, "fat-tree parameter of the scripted session");
  cli.add_int("seed", &seed, bench::kRngSeed, "script + scenario + workload RNG seed");
  cli.add_int("cluster", &cluster, bench::kCluster,
              "broadcast cluster size for the traffic snapshot (at most the server count)");
  cli.add_int("rounds", &rounds, count, "fault/query rounds in the script");
  cli.add_int("events-per-round", &events_per_round, count,
              "scenario events injected per round");
  cli.add_int("convert-rate", &convert_rate, count, "micro-transactions advanced per round");
  cli.add_int("batch", &batch, {1, svc::kMaxBatch}, "service read-only batch cap");
  cli.add_double("eps", &eps, bench::kEps, "Garg-Koenemann epsilon");
  cli.add_double("duration", &duration, util::DoubleRange::at_least(0.0),
                 "simulated horizon for the fault scenario");
  cli.add_string("slo-json", &slo_json, "write the SLO/latency summary to this path");
  cli.add_string("script-out", &script_out, "also write the generated script here");
  bench::Run run(cli, argc, argv);
  if (!run.parsed()) return cli.exit_code();
  run.set_int("seed", seed);
  run.set_double("eps", eps);

  // -- generate the script (pure function of the flags) ----------------------
  const std::uint32_t ku = static_cast<std::uint32_t>(k);
  core::FlatTreeNetwork net = bench::profiled_network(ku);
  if (!bench::cluster_fits("bench_service", cluster, net.params().total_servers())) return 2;
  topo::Topology clos = net.materialize(net.assign_configs(core::Mode::Clos));
  fault::ScenarioParams sp;
  sp.duration = duration;
  sp.seed = static_cast<std::uint64_t>(seed);
  sp.switches = {250.0, 4.0};
  sp.link = {600.0, 3.0};
  sp.converter = {500.0, 6.0};
  fault::Scenario scenario;
  try {
    scenario = fault::generate_scenario(clos, sp, net.converters().size(), net.params().pods());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_service: %s\n", e.what());
    return 2;
  }

  // Deadline ladder cycled across queries: one tight tier that forces
  // budget truncation, two realistic tiers, and unlimited.
  const double deadlines[] = {0.05, 50.0, 250.0, 0.0};

  std::ostringstream script;
  script << "{\"op\":\"hello\"}\n";
  script << "{\"op\":\"build\",\"k\":" << k << "}\n";
  script << "{\"op\":\"traffic\",\"cluster\":" << cluster
         << ",\"pattern\":\"broadcast\",\"placement\":\"none\",\"seed\":" << seed
         << "}\n";
  script << "{\"op\":\"convert\",\"target\":\"global\",\"advance\":0}\n";

  std::size_t cursor = 0;
  int deadline_i = 0;
  for (std::int64_t r = 0; r < rounds; ++r) {
    std::size_t take = std::min(static_cast<std::size_t>(events_per_round),
                                scenario.events.size() - cursor);
    if (take > 0) {
      script << "{\"op\":\"fault\",\"events\":[";
      for (std::size_t i = 0; i < take; ++i) {
        if (i > 0) script << ',';
        script << event_json(scenario.events[cursor + i]);
      }
      script << "],\"advance\":" << convert_rate << "}\n";
      cursor += take;
    } else {
      script << "{\"op\":\"convert\",\"advance\":" << convert_rate << "}\n";
    }
    // A read-only burst per round: queries on the live state plus a
    // hypothetical — these batch through the exec pool.
    for (int q = 0; q < 3; ++q) {
      double dl = deadlines[deadline_i++ % 4];
      script << "{\"op\":\"query\"";
      if (dl > 0.0) script << ",\"deadline_ms\":" << obs::json_number(dl);
      script << "}\n";
    }
    double wdl = deadlines[deadline_i++ % 4];
    if (wdl == 0.0) wdl = 1.0;
    script << "{\"op\":\"what_if\",\"target\":\"" << (r % 2 == 0 ? "local" : "clos")
           << "\",\"deadline_ms\":" << obs::json_number(wdl) << "}\n";
  }
  // Drain whatever conversion work is still pending, then convert home.
  script << "{\"op\":\"convert\",\"advance\":1000000}\n";
  script << "{\"op\":\"convert\",\"target\":\"clos\"}\n";
  script << "{\"op\":\"stats\"}\n";
  std::string script_text = script.str();
  if (!script_out.empty()) {
    std::ofstream f(script_out);
    if (!f) {
      std::fprintf(stderr, "bench_service: cannot open --script-out '%s'\n",
                   script_out.c_str());
      return 2;
    }
    f << script_text;
  }

  // -- run the service in-process --------------------------------------------
  struct Sample {
    svc::Op op;
    double deadline_ms;
    double wall_ms;
    bool ok;
  };
  std::vector<Sample> samples;

  svc::ServiceOptions opt;
  opt.max_batch = static_cast<std::size_t>(batch);
  opt.epsilon = eps;
  opt.selfcheck = run.selfcheck();
  opt.latency_hook = [&](const svc::Request& req, bool ok, double wall_ms) {
    samples.push_back({req.op, req.deadline_ms, wall_ms, ok});
  };
  std::ostringstream journal;
  std::string latest_snapshot;
  opt.journal = &journal;
  opt.snapshot_every = 5;
  opt.snapshot_sink = [&](const std::string& bytes) { latest_snapshot = bytes; };

  svc::Service service(opt);
  std::istringstream in(script_text);
  std::ostringstream out;
  service.run(in, out);
  const std::string responses = out.str();
  const svc::ServiceStats& stats = service.stats();

  // -- deterministic section --------------------------------------------------
  util::Table table({"metric", "value"});
  auto row = [&](const char* name, const std::string& value) {
    table.begin_row();
    table.add(name);
    table.add(value);
  };
  row("requests", std::to_string(stats.lines));
  row("accepted", std::to_string(stats.accepted));
  row("rejected", std::to_string(stats.rejected));
  row("solves", std::to_string(stats.solves));
  row("truncated", std::to_string(stats.truncated_solves));
  row("certified", std::to_string(stats.certified_solves));
  row("batches", std::to_string(stats.batches));
  row("max_batch", std::to_string(stats.max_batch));
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fnv1a(responses)));
  row("digest", digest);
  table.print("service session (deterministic)");

  // -- crash recovery: rebuild a second service from snapshot + journal ------
  const std::string journal_bytes = journal.str();
  svc::durable::JournalContents contents;
  svc::durable::JournalError jerr;
  if (!svc::durable::read_journal(journal_bytes, contents, jerr)) {
    std::fprintf(stderr, "bench_service: journal failed validation: %s\n",
                 jerr.code.c_str());
    return 1;
  }
  std::uint64_t journal_records = 0;
  for (const svc::durable::JournalGroup& g : contents.groups)
    for (const svc::durable::JournalEntry& e : g.entries)
      if (e.is_record) ++journal_records;
  svc::durable::ServiceSnapshot snap;
  bool have_snapshot = false;
  if (!latest_snapshot.empty()) {
    svc::durable::SnapshotError serr;
    if (!svc::durable::decode_snapshot(latest_snapshot, snap, serr)) {
      std::fprintf(stderr, "bench_service: snapshot failed validation: %s\n",
                   serr.code.c_str());
      return 1;
    }
    have_snapshot = true;
  }

  svc::ServiceOptions ropt;
  ropt.max_batch = opt.max_batch;
  ropt.epsilon = eps;
  svc::Service recovered(ropt);
  svc::RecoverStats rstats;
  std::string rerror;
  const auto r0 = std::chrono::steady_clock::now();
  if (!recovered.recover(have_snapshot ? &snap : nullptr, contents, rstats,
                         rerror)) {
    std::fprintf(stderr, "bench_service: recovery failed: %s\n", rerror.c_str());
    return 1;
  }
  const double recover_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                r0)
          .count();
  const bool recovery_match =
      svc::durable::encode_snapshot(recovered.snapshot_state()) ==
      svc::durable::encode_snapshot(service.snapshot_state());

  util::Table rtable({"metric", "value"});
  auto rrow = [&](const char* name, const std::string& value) {
    rtable.begin_row();
    rtable.add(name);
    rtable.add(value);
  };
  rrow("journal_bytes", std::to_string(journal_bytes.size()));
  rrow("journal_records", std::to_string(journal_records));
  rrow("journal_groups", std::to_string(contents.groups.size()));
  rrow("snapshot_bytes", std::to_string(latest_snapshot.size()));
  rrow("recover_fast", std::to_string(rstats.groups_fast));
  rrow("recover_reexec", std::to_string(rstats.groups_reexec));
  rrow("recovery_match", recovery_match ? "1" : "0");
  rtable.print("crash recovery (deterministic)");
  if (!recovery_match) {
    std::fprintf(stderr, "bench_service: recovered state diverged from live state\n");
    return 1;
  }

  // -- timing section (machine-dependent; never part of the digest) ----------
  std::vector<double> lat;
  std::size_t deadlined = 0, met = 0;
  for (const Sample& s : samples) {
    lat.push_back(s.wall_ms);
    if (s.ok && s.deadline_ms > 0.0) {
      ++deadlined;
      if (s.wall_ms <= s.deadline_ms) ++met;
    }
  }
  std::sort(lat.begin(), lat.end());
  double p50 = percentile(lat, 0.50), p99 = percentile(lat, 0.99);
  double pmax = lat.empty() ? 0.0 : lat.back();
  double hit = deadlined > 0 ? static_cast<double>(met) / static_cast<double>(deadlined)
                             : 1.0;
  std::printf("\ntiming (wall-clock, machine-dependent):\n");
  std::printf("  latency_ms  p50 %.4f  p99 %.4f  max %.4f\n", p50, p99, pmax);
  std::printf("  slo         deadlined %zu  met %zu  hit_rate %.3f\n", deadlined, met,
              hit);
  std::printf("  recover_ms  %.4f\n", recover_ms);

  if (!slo_json.empty()) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("schema");
    w.string_value("flattree.bench_svc.v1");
    w.key("k");
    w.int_value(k);
    w.key("seed");
    w.int_value(seed);
    w.key("requests");
    w.uint_value(stats.lines);
    w.key("accepted");
    w.uint_value(stats.accepted);
    w.key("rejected");
    w.uint_value(stats.rejected);
    w.key("solves");
    w.uint_value(stats.solves);
    w.key("truncated_solves");
    w.uint_value(stats.truncated_solves);
    w.key("certified_solves");
    w.uint_value(stats.certified_solves);
    w.key("digest");
    w.string_value(digest);
    w.key("slo");
    w.begin_object();
    w.key("deadlined");
    w.uint_value(deadlined);
    w.key("met");
    w.uint_value(met);
    w.key("hit_rate");
    w.double_value(hit);
    w.end_object();
    w.key("latency_ms");
    w.begin_object();
    w.key("p50");
    w.double_value(p50);
    w.key("p99");
    w.double_value(p99);
    w.key("max");
    w.double_value(pmax);
    w.end_object();
    w.key("recovery");
    w.begin_object();
    w.key("journal_bytes");
    w.uint_value(journal_bytes.size());
    w.key("journal_records");
    w.uint_value(journal_records);
    w.key("journal_groups");
    w.uint_value(contents.groups.size());
    w.key("snapshot_bytes");
    w.uint_value(latest_snapshot.size());
    w.key("recover_fast");
    w.uint_value(rstats.groups_fast);
    w.key("recover_reexec");
    w.uint_value(rstats.groups_reexec);
    w.key("match");
    w.bool_value(recovery_match);
    w.key("recover_ms");
    w.double_value(recover_ms);
    w.end_object();
    w.end_object();
    std::ofstream f(slo_json);
    if (!f) {
      std::fprintf(stderr, "bench_service: cannot open --slo-json '%s'\n",
                   slo_json.c_str());
      return 2;
    }
    f << w.str() << '\n';
  }

  if (run.selfcheck() && service.selfcheck_violations() > 0) {
    std::fprintf(stderr, "bench_service selfcheck: FAILED (%zu violation(s))\n",
                 service.selfcheck_violations());
    return 1;
  }
  return bench::selfcheck_exit();
}
