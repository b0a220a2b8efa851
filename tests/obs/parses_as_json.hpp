#pragma once
// Test helper: JSON validity as the library's own parser sees it.

#include <string>

#include "obs/json.hpp"

namespace flattree::obs {

/// True when json_parse accepts `text` (the parsed value is discarded).
inline bool parses_as_json(const std::string& text) {
  JsonValue discarded;
  return json_parse(text, discarded);
}

}  // namespace flattree::obs
