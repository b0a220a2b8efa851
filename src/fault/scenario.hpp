#pragma once
// Seeded fault scenario generation and the replayable text trace format.
//
// A Scenario is a sorted list of FaultEvents over a simulated horizon. The
// generator draws each entity's fault process independently from
// util::Rng::substream(seed, stream), where the stream index encodes
// (fault class, entity id) — a pure function of the seed, so
//
//   * the trace is identical at any thread count and generation order;
//   * enabling or re-parameterizing one fault class never perturbs the
//     subsequence another class draws (class isolation);
//   * per-entity alternating down/up renewal processes (exponential MTBF /
//     MTTR) unwind exactly: every emitted failure carries its matching
//     repair, so a full playback returns the plant to all-up and the
//     fault.* apply/unapply counters conserve.
//
// Scenarios serialize to a line-oriented text format ("# flattree-fault-
// scenario v1"); doubles are printed with 17 significant digits so a
// save -> load round trip reproduces the event list bit for bit, which
// bench_chaos's replay-equivalence check depends on.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "fault/event.hpp"
#include "topo/topology.hpp"

namespace flattree::fault {

/// One fault class's renewal-process parameters: mean time between
/// failures and mean time to repair, in simulated seconds. A class with
/// mtbf <= 0 is disabled and draws nothing.
struct FaultRate {
  double mtbf = 0.0;
  double mttr = 1.0;
};

/// Generator knobs: one FaultRate per fault class plus flapping control.
struct ScenarioParams {
  double duration = 100.0;   ///< simulated horizon (failures drawn in [0, duration))
  std::uint64_t seed = 1;

  FaultRate link;            ///< per physical switch pair with a base link
  FaultRate switches;        ///< per individual switch
  FaultRate converter;       ///< per converter (stuck-at-config)
  FaultRate pod_power;       ///< per pod (correlated power domain)

  /// Probability that a link outage manifests as a flapping burst: the
  /// outage window is subdivided into up to `flap_max_cycles` rapid
  /// down/up cycles instead of one clean down/up.
  double flap_probability = 0.0;
  std::uint32_t flap_max_cycles = 4;
};

/// Cap on a scenario's expected event count, 2 * sum over classes of
/// (entities * duration / mtbf), the link class times flap_max_cycles when
/// flapping is possible. Every caller in the repository stays far below
/// it; above it a tiny mtbf or a huge cycle count would grow the event
/// list until memory runs out.
inline constexpr double kMaxExpectedEvents = 1 << 24;

/// A time-sorted fault trace and the horizon it was drawn for.
struct Scenario {
  double duration = 0.0;
  std::uint64_t seed = 0;
  std::vector<FaultEvent> events;  ///< sorted by (time, kind, a, b)
};

/// Generates the scenario for `base` (link pairs are enumerated from its
/// links; switch pairs with parallel links fault as one unit). Pass
/// the *physical baseline* topology (the Clos build): switch ids are shared
/// by every conversion, so the same trace stresses fat-tree and flat-tree
/// identically. `converter_count`/`pod_count` scope the converter and
/// pod-power classes (0 disables either regardless of rates). Throws
/// std::invalid_argument unless `duration` is finite and >= 0, no mtbf or
/// mttr is NaN (a value <= 0 still disables its class),
/// `flap_probability` lies in [0, 1] and the expected event count stays
/// within kMaxExpectedEvents; every refusal comes before any event is
/// drawn.
Scenario generate_scenario(const topo::Topology& base, const ScenarioParams& params,
                           std::size_t converter_count, std::uint32_t pod_count);

/// Writes the v1 text format. Doubles round-trip exactly.
void save_scenario(const Scenario& s, std::ostream& out);
/// Parses the v1 text format; throws std::runtime_error on malformed
/// input: bad header, unknown directive or kind, truncated line, trailing
/// token, stray space, non-finite time, or an integer that is signed, has
/// a leading zero or overflows its field (util/scan.hpp). Events are
/// re-sorted on load, so a hand-edited trace replays in canonical order.
Scenario load_scenario(std::istream& in);

}  // namespace flattree::fault
