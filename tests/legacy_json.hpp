#pragma once

#include <cmath>
#include <cstdio>
#include <string>

#include "io/json.hpp"

namespace lightnas::io {

/// Serializes `json` exactly as the writer did before numbers moved to
/// shortest round-trip `std::to_chars`: integral values below 1e15 with
/// "%.0f", every other finite value with "%.17g". Files written that way
/// must keep loading bit for bit.
inline void legacy_dump(const Json& json, std::string& out) {
  switch (json.type()) {
    case Json::Type::kNull:
      out += "null";
      break;
    case Json::Type::kBool:
      out += json.as_bool() ? "true" : "false";
      break;
    case Json::Type::kNumber: {
      const double v = json.as_number();
      char buf[48];
      if (!std::isfinite(v)) {
        out += "null";
        break;
      }
      const bool integral = v == std::floor(v) && std::abs(v) < 1e15;
      std::snprintf(buf, sizeof(buf), integral ? "%.0f" : "%.17g", v);
      out += buf;
      break;
    }
    case Json::Type::kString:
      out += json.dump();  // string escaping is unchanged
      break;
    case Json::Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < json.size(); ++i) {
        if (i != 0) out += ',';
        legacy_dump(json.at(i), out);
      }
      out += ']';
      break;
    }
    case Json::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : json.as_object()) {
        if (!first) out += ',';
        first = false;
        out += Json(key).dump();
        out += ':';
        legacy_dump(value, out);
      }
      out += '}';
      break;
    }
  }
}

inline std::string legacy_dump(const Json& json) {
  std::string out;
  legacy_dump(json, out);
  return out;
}

}  // namespace lightnas::io
