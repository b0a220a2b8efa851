#include "core/converter.hpp"

#include <sstream>

namespace flattree::core {

const char* to_string(ConverterType type) {
  switch (type) {
    case ConverterType::FourPort: return "4-port";
    case ConverterType::SixPort: return "6-port";
  }
  return "?";
}

const char* to_string(ConverterConfig config) {
  switch (config) {
    case ConverterConfig::Default: return "default";
    case ConverterConfig::Local: return "local";
    case ConverterConfig::Side: return "side";
    case ConverterConfig::Cross: return "cross";
  }
  return "?";
}

NodeId server_home(const Converter& c, ConverterConfig config) {
  switch (config) {
    case ConverterConfig::Default: return c.edge;
    case ConverterConfig::Local: return c.agg;
    case ConverterConfig::Side:
    case ConverterConfig::Cross: return c.core;
  }
  return c.edge;
}

bool config_valid(const Converter& c, ConverterConfig config) {
  switch (config) {
    case ConverterConfig::Default:
    case ConverterConfig::Local:
      return true;
    case ConverterConfig::Side:
    case ConverterConfig::Cross:
      return c.type == ConverterType::SixPort && c.peer != kNoPeer;
  }
  return false;
}

std::string validate_assignment(const std::vector<Converter>& converters,
                                const std::vector<ConverterConfig>& configs) {
  if (converters.size() != configs.size()) return "config vector size mismatch";
  for (std::uint32_t i = 0; i < converters.size(); ++i) {
    const Converter& c = converters[i];
    ConverterConfig cfg = configs[i];
    if (!config_valid(c, cfg)) {
      std::ostringstream os;
      os << "converter " << i << " (" << to_string(c.type) << ", pod " << c.pod << ", row "
         << c.row << ", col " << c.col << ") cannot take config " << to_string(cfg);
      return os.str();
    }
    bool paired_cfg = is_pair_config(cfg);
    if (c.peer != kNoPeer) {
      ConverterConfig peer_cfg = configs[c.peer];
      if (paired_cfg != is_pair_config(peer_cfg) || (paired_cfg && cfg != peer_cfg)) {
        std::ostringstream os;
        os << "converter " << i << " config " << to_string(cfg) << " disagrees with peer "
           << c.peer << " config " << to_string(peer_cfg);
        return os.str();
      }
    }
  }
  return {};
}

}  // namespace flattree::core
