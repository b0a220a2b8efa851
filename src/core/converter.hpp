#pragma once
// Converter switches (paper Figure 1).
//
// A converter is a small software-configurable circuit switch spliced into
// one edge-server link and one aggregation-core link of a Clos pod. Its
// configuration decides where the tapped server attaches and which switches
// the tapped core connector reaches:
//
//   4-port {server, edge, agg, core}:
//     default: edge-server, agg-core          (original Clos links)
//     local:   agg-server,  edge-core         (server moves to aggregation)
//   6-port adds a double side connector to a peer converter in the adjacent
//   pod; `side`/`cross` relocate the server to the core switch:
//     side:  server-core on both peers; edge-edge' and agg-agg'
//     cross: server-core on both peers; edge-agg'  and agg-edge'
//
// 4-port converters deliberately cannot relocate servers to core switches:
// doing so would force a redundant edge-aggregation link (the paper's
// "waste a link" argument), which is why the 6-port variant exists.
//
// Converters operate in the physical layer: they are modelled as pure
// rewiring state and contribute zero hops.

#include <cstdint>
#include <string>

#include "topo/topology.hpp"

namespace flattree::core {

using topo::NodeId;
using topo::ServerId;

enum class ConverterType : std::uint8_t { FourPort, SixPort };

enum class ConverterConfig : std::uint8_t {
  Default,  ///< original Clos connections
  Local,    ///< server -> aggregation; edge -> core
  Side,     ///< server -> core; peer-wise edge-edge' / agg-agg' (6-port, paired)
  Cross,    ///< server -> core; crossed edge-agg' / agg-edge' (6-port, paired)
};

const char* to_string(ConverterType type);
const char* to_string(ConverterConfig config);

/// True for the joint pair states (`side`/`cross`).
inline bool is_pair_config(ConverterConfig config) {
  return config == ConverterConfig::Side || config == ConverterConfig::Cross;
}

inline constexpr std::uint32_t kNoPeer = ~std::uint32_t{0};

/// A converter instance with its static attachments. Attachments are fixed
/// by the pod layout and pod-core wiring; only the configuration changes at
/// run time.
struct Converter {
  ConverterType type = ConverterType::FourPort;
  std::uint32_t pod = 0;
  std::uint32_t row = 0;   ///< i within its blade matrix
  std::uint32_t col = 0;   ///< global edge index j in [0, d)

  NodeId edge = graph::kInvalidNode;  ///< tapped edge switch E_j
  NodeId agg = graph::kInvalidNode;   ///< tapped aggregation switch A_{j/r}
  NodeId core = graph::kInvalidNode;  ///< core switch its core connector reaches
  ServerId server = 0;                      ///< tapped server

  /// Peer 6-port converter (index into FlatTreeNetwork::converters()), or
  /// kNoPeer when unpaired (4-port, linear chain ends, odd-d middle column).
  std::uint32_t peer = kNoPeer;
  /// True on exactly one converter of each pair; pair links are emitted
  /// from the canonical end only.
  bool pair_canonical = false;
};

/// Switch hosting `c`'s tapped server under `config`: the edge switch
/// (default), the aggregation switch (local) or the core switch (side/cross).
NodeId server_home(const Converter& c, ConverterConfig config);

/// True when `config` is legal for a converter: side/cross require a paired
/// 6-port converter.
bool config_valid(const Converter& c, ConverterConfig config);

/// Validates a full pairwise assignment: both peers of a pair must carry
/// the same side/cross state (a pair is a joint physical configuration).
/// Returns a description of the first violation, or an empty string.
std::string validate_assignment(const std::vector<Converter>& converters,
                                const std::vector<ConverterConfig>& configs);

}  // namespace flattree::core
