#pragma once
// Pod-core wiring patterns (paper Section 2.3, Figure 4) and the inter-pod
// side-connector shifting pattern (Section 2.5).
//
// Pod-core: in flat-tree each edge switch E_j corresponds to h/r core
// connectors — m from its blade B (6-port) converters, n from blade A
// (4-port), and h/r - m - n direct aggregation uplinks — which connect to
// the fixed group of h/r core switches C_{j*h/r} .. C_{j*h/r + h/r - 1}.
// Within the group the connectors are laid out blade B first, then blade A,
// then aggregation, rotated per pod:
//   pattern 1: offset(p) = p * m        (packs blade B contiguously pod by pod)
//   pattern 2: offset(p) = p * (m + 1)  (advances one extra core per pod)
// Both wrap around within the group. Pattern 1 maximizes use of side links
// between adjacent pods but repeats when h/r is a multiple of m; pattern 2
// restores diversity in that case (the paper uses pattern 2 when 4 | k).
//
// Inter-pod: converter <i,j> on the LEFT blade B of pod p+1 connects to
// converter <i, (w-1-j+i) mod w> on the RIGHT blade B of pod p, where
// w = floor(d/2) is the per-side column count — same row, column shifted i
// slots from the mirrored column. Row parity picks the joint configuration:
// even rows pair as `side`, odd rows as `cross`, so adjacent pods get both
// peer-wise and edge-aggregation connections.

#include <cstdint>
#include <vector>

namespace flattree::core {

enum class WiringPattern : std::uint8_t {
  Pattern1,
  Pattern2,
  /// Paper's Section 3.2 rule: Pattern2 when k is a multiple of 4,
  /// Pattern1 otherwise.
  Auto,
};

/// How the pod chain closes for side connectors (a DESIGN.md substitution:
/// the paper only specifies adjacency).
enum class PodChain : std::uint8_t {
  Ring,    ///< pod P-1's right blade pairs with pod 0's left blade (default)
  Linear,  ///< end blades stay unpaired; their converters fall back to
           ///< standalone configurations
};

const char* to_string(WiringPattern pattern);
const char* to_string(PodChain chain);

/// Resolves Auto for a given k (paper rule: Pattern2 when 4 | k, else
/// Pattern1) — except when the preferred pattern is *degenerate* for the
/// given (m, group_size): a rotation step that is 0 mod h/r parks every
/// pod's blade B connectors on the same cores, which in global-random mode
/// leaves those cores with servers but no links. Auto then falls back to
/// the other pattern. Explicitly requested degenerate patterns are honored
/// (materialize() will reject the disconnected result).
WiringPattern resolve_pattern(WiringPattern pattern, std::uint32_t k, std::uint32_t m,
                              std::uint32_t group_size);

/// True when the pattern's per-pod rotation step is 0 mod group_size.
bool pattern_degenerate(WiringPattern pattern, std::uint32_t m, std::uint32_t group_size);

/// True when the pattern distributes blade B connectors (and hence
/// relocated servers — paper Property 1) exactly uniformly across the
/// cores of each group: the rotation step's gcd with the group size must
/// divide the blade B block length m. Pattern 1 (step m) always is;
/// pattern 2 (step m+1) is uniform iff gcd(m+1, group) == 1.
bool pattern_server_uniform(WiringPattern pattern, std::uint32_t m,
                            std::uint32_t group_size);

/// What a pod-core connector slot is wired through.
enum class CoreConnectorKind : std::uint8_t { BladeB, BladeA, Aggregation };

/// Core-switch assignment for one (pod, edge) connector family.
struct CoreAssignment {
  /// core_of_blade_b[i] = core index (global) for blade B row i, i in [0,m).
  std::vector<std::uint32_t> core_of_blade_b;
  /// core_of_blade_a[i] = core index for blade A row i, i in [0,n).
  std::vector<std::uint32_t> core_of_blade_a;
  /// core_of_agg[t] = core index for the t-th direct aggregation uplink.
  std::vector<std::uint32_t> core_of_agg;
};

/// Computes the assignment for pod `p`, edge `j`. `group_size` = h/r.
/// Requires m + n <= group_size. Cores are numbered j*group_size + slot.
CoreAssignment assign_cores(WiringPattern pattern, std::uint32_t p, std::uint32_t j,
                            std::uint32_t m, std::uint32_t n, std::uint32_t group_size);

/// Rotation offset within the core group for pod p (exposed for tests).
std::uint32_t pattern_offset(WiringPattern pattern, std::uint32_t p, std::uint32_t m,
                             std::uint32_t group_size);

/// Inter-pod shift: the RIGHT-blade column (0-based, within the blade) of
/// pod p paired with LEFT-blade column `j` (row `i`) of pod p+1.
/// `w` = per-side column count (floor(d/2)); requires j < w.
std::uint32_t side_peer_column(std::uint32_t i, std::uint32_t j, std::uint32_t w);

}  // namespace flattree::core
