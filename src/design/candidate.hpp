#pragma once
// Conversion-plan candidates for the automated design search.
//
// A Candidate is a hybrid-zone layout over a flat-tree plant: an ordered
// list of contiguous pod ranges (zones), each operating one conversion
// mode (paper Sections 2.6/3.4). Candidates are always held in *canonical
// form* — zones ascending, covering [0, pods) exactly, no empty zone, no
// two adjacent zones with the same mode — so structural equality, the
// text encoding, and the search's accepted-move log are all well defined.

#include <cstdint>
#include <string>
#include <vector>

#include "core/flat_tree.hpp"

namespace flattree::design {

/// One zone: pods [begin, end) all operate `mode`.
struct Zone {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  core::Mode mode = core::Mode::Clos;

  /// Structural equality (canonical candidates compare by value).
  bool operator==(const Zone&) const = default;
};

/// A canonical zone layout over a fixed pod count. Construct through the
/// named factories; the constructorless canonical invariant is what makes
/// encode and operator== trustworthy.
class Candidate {
 public:
  /// Single zone spanning every pod. Throws std::invalid_argument when
  /// pods == 0.
  static Candidate uniform(std::uint32_t pods, core::Mode mode);

  /// Builds from explicit zones: they must be non-empty, ascending, and
  /// cover [0, pods) exactly (std::invalid_argument otherwise). Adjacent
  /// same-mode zones are merged into canonical form.
  static Candidate from_zones(std::uint32_t pods, std::vector<Zone> zones);

  /// Pod count covered by the layout.
  std::uint32_t pods() const { return pods_; }

  /// Canonical zones, ascending.
  const std::vector<Zone>& zones() const { return zones_; }

  /// Flat per-pod mode vector — the core::FlatTreeNetwork::build input.
  std::vector<core::Mode> pod_modes() const;

  /// Pods operating `mode`, ascending (cf. core::ZonePartition::pods_in).
  std::vector<std::uint32_t> pods_in(core::Mode mode) const;

  /// Canonical text encoding: a "# flattree-design-candidate v1" header,
  /// a "pods N" line, then one "zone BEGIN END MODE" line per zone with
  /// core::to_string mode tokens. Newline-terminated.
  std::string encode() const;

  /// Structural equality over (pods, zones); canonical form makes this a
  /// true layout equality.
  bool operator==(const Candidate&) const = default;

 private:
  std::uint32_t pods_ = 0;
  std::vector<Zone> zones_;
};

}  // namespace flattree::design
