#include "topo/serialize.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/scan.hpp"

namespace flattree::topo {

namespace {

const char* kMagic = "flattree-topology v1";
constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

[[noreturn]] void fail(const std::string& what, std::size_t line) {
  throw std::invalid_argument("deserialize: " + what + " at line " + std::to_string(line));
}

SwitchKind parse_kind(const std::string& token, std::size_t line) {
  if (token == "core") return SwitchKind::Core;
  if (token == "aggregation") return SwitchKind::Aggregation;
  if (token == "edge") return SwitchKind::Edge;
  fail("unknown switch kind '" + token + "'", line);
}

LinkOrigin parse_origin(const std::string& token, std::size_t line) {
  if (token == "clos-edge-agg") return LinkOrigin::ClosEdgeAgg;
  if (token == "pod-core") return LinkOrigin::PodCore;
  if (token == "converter-local") return LinkOrigin::ConverterLocal;
  if (token == "inter-pod-side") return LinkOrigin::InterPodSide;
  if (token == "random") return LinkOrigin::Random;
  fail("unknown link origin '" + token + "'", line);
}

/// Reads one non-empty line or throws.
std::string next_line(std::istringstream& in, std::size_t& line) {
  std::string s;
  while (std::getline(in, s)) {
    ++line;
    if (!s.empty()) return s;
  }
  throw std::invalid_argument("deserialize: unexpected end of input after line " +
                              std::to_string(line));
}

/// The next non-empty line split into exactly `count` single-space
/// separated words; `what` names the row in the refusal.
std::vector<std::string> next_row(std::istringstream& in, std::size_t& line,
                                  std::size_t count, const char* what) {
  std::vector<std::string> words;
  if (!util::split_words(next_line(in, line), words) || words.size() < count)
    fail(std::string("malformed ") + what, line);
  if (words.size() > count) fail("trailing token '" + words[count] + "'", line);
  return words;
}

/// `token` as a canonical decimal integer no larger than `max`.
std::uint64_t parse_field(const std::string& token, std::uint64_t max, const char* field,
                          std::size_t line) {
  std::uint64_t v = 0;
  util::UintError e = util::parse_uint(token, max, v);
  if (e != util::UintError::Ok)
    fail(std::string("bad ") + field + " '" + token + "' (" + util::describe(e) + ")", line);
  return v;
}

/// A pod: a canonical integer, or '-' before a canonical positive one.
std::int32_t parse_pod(const std::string& token, std::size_t line) {
  constexpr std::uint64_t kMaxPod = std::numeric_limits<std::int32_t>::max();
  if (token.size() < 2 || token[0] != '-')
    return static_cast<std::int32_t>(parse_field(token, kMaxPod, "pod", line));
  std::uint64_t magnitude = parse_field(token.substr(1), kMaxPod + 1, "pod", line);
  if (magnitude == 0) fail("bad pod '" + token + "' (negative zero)", line);
  return static_cast<std::int32_t>(-static_cast<std::int64_t>(magnitude));
}

double parse_capacity(const std::string& token, std::size_t line) {
  double v = 0.0;
  auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
  if (ec != std::errc() || end != token.data() + token.size() || !std::isfinite(v) ||
      v <= 0.0)
    fail("bad capacity '" + token + "'", line);
  return v;
}

std::size_t parse_section(std::istringstream& in, std::size_t& line, const char* name) {
  std::vector<std::string> words;
  if (!util::split_words(next_line(in, line), words) || words.size() != 2 ||
      words[0] != name)
    fail(std::string("expected '") + name + " <count>'", line);
  return parse_field(words[1], kMaxU32, "count", line);
}

/// Shortest %g rendering with at least 6 significant digits that reads
/// back to `c`: a capacity that survives the stream default (every
/// integer and short value) prints exactly as the default would.
std::string format_capacity(double c) {
  char buf[32];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, c);
    if (std::strtod(buf, nullptr) == c) break;
  }
  return buf;
}

}  // namespace

std::string serialize(const Topology& topo) {
  std::ostringstream os;
  os << kMagic << '\n';
  os << "switches " << topo.switch_count() << '\n';
  for (NodeId v = 0; v < topo.switch_count(); ++v) {
    const SwitchInfo& info = topo.info(v);
    os << to_string(info.kind) << ' ' << info.pod << ' ' << info.index << ' ' << info.ports
       << '\n';
  }
  os << "links " << topo.link_count() << '\n';
  for (graph::LinkId l = 0; l < topo.link_count(); ++l) {
    const graph::Link& link = topo.graph().link(l);
    os << link.a << ' ' << link.b << ' ' << format_capacity(link.capacity) << ' '
       << to_string(topo.link_info(l).origin) << '\n';
  }
  os << "servers " << topo.server_count() << '\n';
  for (ServerId s = 0; s < topo.server_count(); ++s) os << topo.host(s) << '\n';
  return os.str();
}

Topology deserialize(const std::string& text) {
  std::istringstream in(text);
  std::size_t line = 0;
  if (next_line(in, line) != kMagic)
    throw std::invalid_argument("deserialize: bad magic header (want '" +
                                std::string(kMagic) + "')");

  Topology topo;
  std::size_t switches = parse_section(in, line, "switches");
  for (std::size_t i = 0; i < switches; ++i) {
    std::vector<std::string> row = next_row(in, line, 4, "switch");
    SwitchKind kind = parse_kind(row[0], line);
    std::int32_t pod = parse_pod(row[1], line);
    auto index = static_cast<std::uint32_t>(parse_field(row[2], kMaxU32, "index", line));
    auto ports = static_cast<std::uint32_t>(parse_field(row[3], kMaxU32, "ports", line));
    topo.add_switch(kind, pod, index, ports);
  }

  // Endpoints and hosts must name a switch read above.
  auto switch_field = [&](const std::string& token, const char* field) {
    std::uint64_t v = parse_field(token, kMaxU32, field, line);
    if (v >= switches)
      fail(std::string("bad ") + field + " '" + token + "' (no such switch)", line);
    return static_cast<NodeId>(v);
  };

  std::size_t links = parse_section(in, line, "links");
  for (std::size_t i = 0; i < links; ++i) {
    std::vector<std::string> row = next_row(in, line, 4, "link");
    NodeId a = switch_field(row[0], "endpoint");
    NodeId b = switch_field(row[1], "endpoint");
    if (a == b) fail("self-loop link", line);
    double capacity = parse_capacity(row[2], line);
    topo.add_link(a, b, parse_origin(row[3], line), capacity);
  }

  std::size_t servers = parse_section(in, line, "servers");
  for (std::size_t i = 0; i < servers; ++i)
    topo.add_server(switch_field(next_row(in, line, 1, "server")[0], "host"));

  std::string rest;
  while (std::getline(in, rest)) {
    ++line;
    if (!rest.empty()) fail("trailing line after the servers section", line);
  }
  return topo;
}

}  // namespace flattree::topo
