// JSON string escaping shared by the metrics and trace renderers.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace nanocost::obs::detail {

/// Appends `s` with '"', '\\' and control bytes escaped, so it can sit
/// between the quotes of a JSON string.  Metric names decoded from a
/// stats blob are arbitrary bytes, so every renderer escapes them.
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
}

}  // namespace nanocost::obs::detail
