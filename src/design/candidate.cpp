#include "design/candidate.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/scan.hpp"

namespace flattree::design {
namespace {

core::Mode parse_mode_token(const std::string& token) {
  if (token == "clos") return core::Mode::Clos;
  if (token == "global-random") return core::Mode::GlobalRandom;
  if (token == "local-random") return core::Mode::LocalRandom;
  throw std::runtime_error("design candidate: unknown mode token '" + token + "'");
}

/// A pod count or zone bound: canonical decimal within uint32.
std::uint32_t parse_pod_index(const std::string& token, const std::string& line) {
  std::uint64_t v = 0;
  util::UintError err =
      util::parse_uint(token, std::numeric_limits<std::uint32_t>::max(), v);
  if (err != util::UintError::Ok)
    throw std::runtime_error(std::string("design candidate: ") + util::describe(err) +
                             " '" + token + "' in line: " + line);
  return static_cast<std::uint32_t>(v);
}

}  // namespace

Candidate Candidate::uniform(std::uint32_t pods, core::Mode mode) {
  return from_zones(pods, {Zone{0, pods, mode}});
}

Candidate Candidate::from_pod_modes(const std::vector<core::Mode>& modes) {
  std::vector<Zone> zones;
  for (std::uint32_t p = 0; p < modes.size(); ++p) {
    if (!zones.empty() && zones.back().mode == modes[p]) {
      zones.back().end = p + 1;
    } else {
      zones.push_back(Zone{p, p + 1, modes[p]});
    }
  }
  return from_zones(static_cast<std::uint32_t>(modes.size()), std::move(zones));
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

Candidate Candidate::decode(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  bool header = false;
  bool have_pods = false;
  std::uint32_t pods = 0;
  std::vector<Zone> zones;
  std::vector<std::string> f;
  while (std::getline(in, line)) {
    if (!header) {
      if (line != "# flattree-design-candidate v1")
        throw std::runtime_error("design candidate: missing v1 header");
      header = true;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    if (!util::split_words(line, f))
      throw std::runtime_error("design candidate: stray space in line: " + line);
    // Exactly `n` fields: fewer is a bad line, more a trailing token.
    auto arity = [&](std::size_t n) {
      if (f.size() < n)
        throw std::runtime_error("design candidate: bad " + f[0] + " line: " + line);
      if (f.size() > n)
        throw std::runtime_error("design candidate: trailing token '" + f[n] +
                                 "' in line: " + line);
    };
    const std::string& directive = f[0];
    if (directive == "pods") {
      arity(2);
      pods = parse_pod_index(f[1], line);
      have_pods = true;
    } else if (directive == "zone") {
      arity(4);
      Zone z;
      z.begin = parse_pod_index(f[1], line);
      z.end = parse_pod_index(f[2], line);
      z.mode = parse_mode_token(f[3]);
      zones.push_back(z);
    } else {
      throw std::runtime_error("design candidate: unknown directive '" +
                               directive + "'");
    }
  }
  if (!header) throw std::runtime_error("design candidate: missing v1 header");
  if (!have_pods) throw std::runtime_error("design candidate: missing pods line");
  try {
    return from_zones(pods, std::move(zones));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("design candidate: ") + e.what());
  }
}

}  // namespace flattree::design
