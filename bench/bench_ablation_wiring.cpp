// Ablation: pod-core wiring pattern 1 vs pattern 2, and ring vs linear
// inter-pod chains (our DESIGN.md substitution).
//
// Paper Section 2.3: pattern 1 exploits adjacent-pod side links best but
// repeats when h/r is a multiple of m; pattern 2 restores diversity. We
// report the global-RG-mode server APL for each explicit choice plus the
// Auto rule, and the ring/linear chain difference.

#include <cstdio>

#include "common.hpp"
#include "topo/apl.hpp"

using namespace flattree;

namespace {

double apl_for(std::uint32_t k, core::WiringPattern pattern, core::PodChain chain) {
  core::FlatTreeConfig cfg;
  cfg.k = k;
  cfg.pattern = pattern;
  cfg.chain = chain;
  core::FlatTreeNetwork net(cfg);
  try {
    topo::Topology t = net.build(core::Mode::GlobalRandom);
    double apl = topo::server_apl(t).average;
    // Validate only non-degenerate wirings: a disconnected explicit
    // pattern is a legal "disconn" table entry, not a violation.
    bench::check_topology(t, "flat-tree(global)");
    return apl;
  } catch (const std::exception&) {
    return -1.0;  // degenerate wiring disconnects some cores
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t kmax = 32, kstep = 2;
  util::CliParser cli("Ablation: wiring pattern and pod-chain topology (global RG APL).");
  cli.add_int("kmax", &kmax, bench::kKmax, "largest fat-tree parameter k");
  cli.add_int("kstep", &kstep, bench::kKstep, "k sweep step");
  bench::Run run(cli, argc, argv);
  if (!run.parsed()) return cli.exit_code();

  util::Table table({"k", "pattern1 ring", "pattern2 ring", "auto ring", "auto pattern",
                     "auto linear"});
  for (std::uint32_t k : bench::k_values(kmax, kstep)) {
    core::FlatTreeConfig probe;
    probe.k = k;
    core::FlatTreeNetwork net(probe);

    table.begin_row();
    table.integer(k);
    double p1 = apl_for(k, core::WiringPattern::Pattern1, core::PodChain::Ring);
    double p2 = apl_for(k, core::WiringPattern::Pattern2, core::PodChain::Ring);
    double au = apl_for(k, core::WiringPattern::Auto, core::PodChain::Ring);
    double lin = apl_for(k, core::WiringPattern::Auto, core::PodChain::Linear);
    if (p1 >= 0) table.num(p1); else table.add("disconn");
    if (p2 >= 0) table.num(p2); else table.add("disconn");
    table.num(au);
    table.add(core::to_string(net.pattern()));
    table.num(lin);
  }
  table.print("Ablation: wiring pattern 1 vs 2, ring vs linear pod chain");
  std::puts("Auto picks the paper rule (pattern 2 when 4 | k) unless that rotation\n"
            "would break Property 1; 'disconn' marks degenerate explicit choices.\n"
            "Linear chains lose the wrap-around side links, slightly raising APL.");
  return bench::selfcheck_exit();
}
