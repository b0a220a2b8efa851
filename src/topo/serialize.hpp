#pragma once
// Plain-text topology serialization.
//
// A stable, diff-able format so experiments can snapshot materialized
// topologies, compare conversions out-of-band, or feed external tools.
//
//   flattree-topology v1
//   switches <count>
//   <kind> <pod> <index> <ports>        # one per switch, id order
//   links <count>
//   <a> <b> <capacity> <origin>         # one per link, id order
//   servers <count>
//   <host>                              # one per server, id order
//
// Fields are separated by one ' '; integers are canonical decimal (read
// through util/scan.hpp, a pod may carry a leading '-'); capacities print
// with at least 6 significant digits and as many more as reading them
// back exactly needs, so deserialize(serialize(t)) keeps every bit.

#include <string>

#include "topo/topology.hpp"

namespace flattree::topo {

/// Renders the topology in the v1 text format.
std::string serialize(const Topology& topo);

/// Parses the v1 text format. Throws std::invalid_argument with a
/// line-numbered message on malformed input: a short row, a trailing
/// token or line, a non-canonical or out-of-range integer, an endpoint or
/// host that names no switch, a self-loop, or a capacity that is not a
/// finite positive number.
Topology deserialize(const std::string& text);

}  // namespace flattree::topo
