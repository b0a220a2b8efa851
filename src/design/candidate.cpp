#include "design/candidate.hpp"

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace flattree::design {

Candidate Candidate::uniform(std::uint32_t pods, core::Mode mode) {
  return from_zones(pods, {Zone{0, pods, mode}});
}

Candidate Candidate::from_zones(std::uint32_t pods, std::vector<Zone> zones) {
  if (pods == 0) throw std::invalid_argument("design candidate: pods must be > 0");
  std::uint32_t cursor = 0;
  std::vector<Zone> merged;
  for (const Zone& z : zones) {
    if (z.begin != cursor || z.end <= z.begin)
      throw std::invalid_argument("design candidate: zones must be non-empty, "
                                  "ascending, and cover [0, pods)");
    cursor = z.end;
    if (!merged.empty() && merged.back().mode == z.mode) {
      merged.back().end = z.end;
    } else {
      merged.push_back(z);
    }
  }
  if (cursor != pods)
    throw std::invalid_argument("design candidate: zones must cover [0, pods)");
  Candidate c;
  c.pods_ = pods;
  c.zones_ = std::move(merged);
  return c;
}

std::vector<core::Mode> Candidate::pod_modes() const {
  std::vector<core::Mode> modes(pods_, core::Mode::Clos);
  for (const Zone& z : zones_)
    for (std::uint32_t p = z.begin; p < z.end; ++p) modes[p] = z.mode;
  return modes;
}

std::vector<std::uint32_t> Candidate::pods_in(core::Mode mode) const {
  std::vector<std::uint32_t> pods;
  for (const Zone& z : zones_)
    if (z.mode == mode)
      for (std::uint32_t p = z.begin; p < z.end; ++p) pods.push_back(p);
  return pods;
}

std::string Candidate::encode() const {
  std::ostringstream out;
  out << "# flattree-design-candidate v1\n";
  out << "pods " << pods_ << "\n";
  for (const Zone& z : zones_)
    out << "zone " << z.begin << " " << z.end << " " << core::to_string(z.mode)
        << "\n";
  return out.str();
}

}  // namespace flattree::design
