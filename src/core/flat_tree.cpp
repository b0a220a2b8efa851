#include "core/flat_tree.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flattree::core {

namespace {

obs::Counter c_builds("core.flat_tree.builds");
obs::Counter c_materializations("core.flat_tree.materializations");

}  // namespace

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::Clos: return "clos";
    case Mode::GlobalRandom: return "global-random";
    case Mode::LocalRandom: return "local-random";
  }
  return "?";
}

std::uint32_t FlatTreeConfig::default_m(std::uint32_t k) {
  return static_cast<std::uint32_t>(std::lround(static_cast<double>(k) / 8.0));
}

std::uint32_t FlatTreeConfig::default_n(std::uint32_t k) {
  return static_cast<std::uint32_t>(std::lround(2.0 * static_cast<double>(k) / 8.0));
}

std::uint32_t FlatTreeConfig::default_m_for_group(std::uint32_t group) {
  return static_cast<std::uint32_t>(std::lround(static_cast<double>(group) / 4.0));
}

std::uint32_t FlatTreeConfig::default_n_for_group(std::uint32_t group) {
  return static_cast<std::uint32_t>(std::lround(static_cast<double>(group) / 2.0));
}

FlatTreeNetwork::FlatTreeNetwork(FlatTreeConfig config) : config_(config) {
  if (config_.k < 4 || config_.k % 2 != 0)
    throw std::invalid_argument("FlatTreeNetwork: k must be even and >= 4");
  if (config_.m == FlatTreeConfig::kProfiled) config_.m = FlatTreeConfig::default_m(config_.k);
  if (config_.n == FlatTreeConfig::kProfiled) config_.n = FlatTreeConfig::default_n(config_.k);
  params_ = topo::ClosParams::fat_tree(config_.k);
  init();
}

FlatTreeNetwork::FlatTreeNetwork(const topo::ClosParams& params, std::uint32_t m,
                                 std::uint32_t n, WiringPattern pattern, PodChain chain) {
  params_ = params;
  const std::uint32_t group = params_.h() / params_.r();
  config_.k = params_.k;
  config_.m = m == FlatTreeConfig::kProfiled ? FlatTreeConfig::default_m_for_group(group) : m;
  config_.n = n == FlatTreeConfig::kProfiled ? FlatTreeConfig::default_n_for_group(group) : n;
  config_.pattern = pattern;
  config_.chain = chain;
  init();
}

void FlatTreeNetwork::init() {
  c_builds.inc();
  layout_ = PodLayout(params_, config_.m, config_.n);  // validates m + n bounds
  pattern_ = resolve_pattern(config_.pattern, params_.pods(), config_.m,
                             params_.h() / params_.r());
  build_converters();
  pair_converters();
}

NodeId FlatTreeNetwork::edge_switch(std::uint32_t pod, std::uint32_t j) const {
  return pod * (params_.d() + params_.aggs_per_pod()) + j;
}

NodeId FlatTreeNetwork::agg_switch(std::uint32_t pod, std::uint32_t i) const {
  return pod * (params_.d() + params_.aggs_per_pod()) + params_.d() + i;
}

NodeId FlatTreeNetwork::core_switch(std::uint32_t c) const {
  return params_.pods() * (params_.d() + params_.aggs_per_pod()) + c;
}

ServerId FlatTreeNetwork::server(std::uint32_t pod, std::uint32_t j, std::uint32_t s) const {
  return (pod * params_.d() + j) * params_.servers_per_edge() + s;
}

std::uint32_t FlatTreeNetwork::converter_index(std::uint32_t pod, std::uint32_t slot) const {
  return pod * layout_.converters_per_pod() + slot;
}

void FlatTreeNetwork::build_converters() {
  const std::uint32_t group = params_.h() / params_.r();
  converters_.clear();
  converters_.reserve(params_.pods() * layout_.converters_per_pod());
  for (std::uint32_t pod = 0; pod < params_.pods(); ++pod) {
    // Core slots for each edge connector family in this pod.
    for (std::uint32_t slot = 0; slot < layout_.converters_per_pod(); ++slot) {
      PodLayout::SlotInfo info = layout_.slot_info(slot);
      CoreAssignment cores =
          assign_cores(pattern_, pod, info.col, config_.m, config_.n, group);
      Converter c;
      c.type = info.blade_b ? ConverterType::SixPort : ConverterType::FourPort;
      c.pod = pod;
      c.row = info.row;
      c.col = info.col;
      c.edge = edge_switch(pod, info.col);
      c.agg = agg_switch(pod, layout_.agg_of(info.col));
      c.core = core_switch(info.blade_b ? cores.core_of_blade_b[info.row]
                                        : cores.core_of_blade_a[info.row]);
      c.server = server(pod, info.col, layout_.tapped_server(info));
      converters_.push_back(c);
    }
  }
}

void FlatTreeNetwork::pair_converters() {
  const std::uint32_t w = layout_.left_width();
  const std::uint32_t pods = params_.pods();
  if (w == 0 || config_.m == 0) return;
  const std::uint32_t last_right_pod = config_.chain == PodChain::Ring ? pods : pods - 1;
  for (std::uint32_t p = 0; p < last_right_pod; ++p) {
    std::uint32_t left_pod = (p + 1) % pods;  // pod owning the left blade
    for (std::uint32_t i = 0; i < config_.m; ++i) {
      for (std::uint32_t j = 0; j < w; ++j) {
        std::uint32_t right_col = w + side_peer_column(i, j, w);
        std::uint32_t left_idx =
            converter_index(left_pod, layout_.blade_b_slot(i, j));
        std::uint32_t right_idx =
            converter_index(p, layout_.blade_b_slot(i, right_col));
        Converter& left = converters_[left_idx];
        Converter& right = converters_[right_idx];
        if (left.peer != kNoPeer || right.peer != kNoPeer)
          throw std::logic_error("pair_converters: converter paired twice");
        left.peer = right_idx;
        right.peer = left_idx;
        right.pair_canonical = true;  // pair links emitted from the right end
      }
    }
  }
}

std::vector<ConverterConfig> FlatTreeNetwork::assign_configs(
    const std::vector<Mode>& pod_modes) const {
  if (pod_modes.size() != params_.pods())
    throw std::invalid_argument("assign_configs: one mode per pod required");
  std::vector<ConverterConfig> configs(converters_.size(), ConverterConfig::Default);
  for (std::uint32_t i = 0; i < converters_.size(); ++i) {
    const Converter& c = converters_[i];
    switch (pod_modes[c.pod]) {
      case Mode::Clos:
        configs[i] = ConverterConfig::Default;
        break;
      case Mode::LocalRandom:
        configs[i] = c.type == ConverterType::FourPort ? ConverterConfig::Local
                                                       : ConverterConfig::Default;
        break;
      case Mode::GlobalRandom:
        if (c.type == ConverterType::FourPort) {
          configs[i] = ConverterConfig::Local;
        } else if (c.peer != kNoPeer &&
                   pod_modes[converters_[c.peer].pod] == Mode::GlobalRandom) {
          configs[i] = c.row % 2 == 0 ? ConverterConfig::Side : ConverterConfig::Cross;
        } else {
          // Zone boundary or unpaired end: standalone fallback that still
          // diversifies link types within the pod.
          configs[i] = ConverterConfig::Local;
        }
        break;
    }
  }
  return configs;
}

std::vector<ConverterConfig> FlatTreeNetwork::assign_configs(Mode mode) const {
  return assign_configs(std::vector<Mode>(params_.pods(), mode));
}

ConverterWiring FlatTreeNetwork::converter_wiring(std::uint32_t idx,
                                                  ConverterConfig config) const {
  const Converter& c = converters_[idx];
  ConverterWiring w;
  w.host = server_home(c, config);
  switch (config) {
    case ConverterConfig::Default:
      w.links[w.link_count++] = {c.agg, c.core, topo::LinkOrigin::PodCore};
      break;
    case ConverterConfig::Local:
      w.links[w.link_count++] = {c.edge, c.core, topo::LinkOrigin::ConverterLocal};
      break;
    case ConverterConfig::Side:
    case ConverterConfig::Cross: {
      if (!c.pair_canonical) break;  // pair links leave from the canonical end
      const Converter& peer = converters_[c.peer];
      const bool side = config == ConverterConfig::Side;
      w.links[w.link_count++] = {c.edge, side ? peer.edge : peer.agg,
                                 topo::LinkOrigin::InterPodSide};
      w.links[w.link_count++] = {c.agg, side ? peer.agg : peer.edge,
                                 topo::LinkOrigin::InterPodSide};
      break;
    }
  }
  return w;
}

topo::Topology FlatTreeNetwork::materialize(
    const std::vector<ConverterConfig>& configs) const {
  OBS_SPAN("core.flat_tree.materialize");
  c_materializations.inc();
  std::string err = validate_assignment(converters_, configs);
  if (!err.empty()) throw std::invalid_argument("materialize: " + err);

  const topo::ClosParams& p = params_;
  topo::Topology topo;

  // Switches, fat-tree id layout, per-layer port budgets.
  for (std::uint32_t pod = 0; pod < p.pods(); ++pod) {
    for (std::uint32_t j = 0; j < p.d(); ++j)
      topo.add_switch(topo::SwitchKind::Edge, static_cast<std::int32_t>(pod), j,
                      p.edge_ports());
    for (std::uint32_t i = 0; i < p.aggs_per_pod(); ++i)
      topo.add_switch(topo::SwitchKind::Aggregation, static_cast<std::int32_t>(pod), i,
                      p.agg_ports());
  }
  for (std::uint32_t c = 0; c < p.cores(); ++c)
    topo.add_switch(topo::SwitchKind::Core, -1, c, p.core_ports());

  // Servers, fat-tree id order; host decided by the tapping converter.
  for (std::uint32_t pod = 0; pod < p.pods(); ++pod) {
    for (std::uint32_t j = 0; j < p.d(); ++j) {
      for (std::uint32_t s = 0; s < p.servers_per_edge(); ++s) {
        NodeId host = edge_switch(pod, j);
        std::uint32_t conv = kNoPeer;
        if (s < config_.n) {
          conv = converter_index(pod, layout_.blade_a_slot(s, j));
        } else if (s < config_.n + config_.m) {
          conv = converter_index(pod, layout_.blade_b_slot(s - config_.n, j));
        }
        if (conv != kNoPeer) host = converter_wiring(conv, configs[conv]).host;
        topo.add_server(host);
      }
    }
  }

  // Intra-pod edge-aggregation mesh (never rewired).
  for (std::uint32_t pod = 0; pod < p.pods(); ++pod)
    for (std::uint32_t j = 0; j < p.d(); ++j)
      for (std::uint32_t i = 0; i < p.aggs_per_pod(); ++i)
        topo.add_link(edge_switch(pod, j), agg_switch(pod, i),
                      topo::LinkOrigin::ClosEdgeAgg);

  auto emit = [&](std::uint32_t conv) {
    ConverterWiring w = converter_wiring(conv, configs[conv]);
    for (std::uint32_t l = 0; l < w.link_count; ++l)
      topo.add_link(w.links[l].a, w.links[l].b, w.links[l].origin);
  };

  // Pod-core connectors: converter core connectors + direct agg uplinks.
  const std::uint32_t group = p.h() / p.r();
  for (std::uint32_t pod = 0; pod < p.pods(); ++pod) {
    for (std::uint32_t j = 0; j < p.d(); ++j) {
      CoreAssignment cores = assign_cores(pattern_, pod, j, config_.m, config_.n, group);
      // Blade B (6-port) core connectors; pair states emit below.
      for (std::uint32_t i = 0; i < config_.m; ++i) {
        std::uint32_t conv = converter_index(pod, layout_.blade_b_slot(i, j));
        if (!is_pair_config(configs[conv])) emit(conv);
      }
      // Blade A (4-port) core connectors.
      for (std::uint32_t i = 0; i < config_.n; ++i)
        emit(converter_index(pod, layout_.blade_a_slot(i, j)));
      // Remaining direct aggregation uplinks.
      NodeId agg = agg_switch(pod, layout_.agg_of(j));
      for (std::uint32_t core_idx : cores.core_of_agg)
        topo.add_link(agg, core_switch(core_idx), topo::LinkOrigin::PodCore);
    }
  }

  // Inter-pod side links (one emission per pair, from the canonical end).
  for (std::uint32_t idx = 0; idx < converters_.size(); ++idx)
    if (is_pair_config(configs[idx])) emit(idx);

  topo.validate();
  return topo;
}

topo::Topology FlatTreeNetwork::build(Mode mode) const {
  return materialize(assign_configs(mode));
}

topo::Topology FlatTreeNetwork::build(const std::vector<Mode>& pod_modes) const {
  return materialize(assign_configs(pod_modes));
}

}  // namespace flattree::core
