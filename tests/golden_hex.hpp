#pragma once
// Hex helpers for golden-vector tests.  A pinned byte format is written
// down as lowercase hex, two digits per byte, in file order; a golden
// test compares an encoder's output against it and decodes it back.
// A failing golden means the format changed, which needs a version
// bump, not a new golden.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace nanocost::testing {

inline std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

inline std::vector<std::uint8_t> from_hex(std::string_view hex) {
  const auto nibble = [](char c) {
    if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<std::uint8_t>(c - 'a' + 10);
    throw std::invalid_argument("golden hex holds a non-hex digit");
  };
  if (hex.size() % 2 != 0) throw std::invalid_argument("golden hex has an odd digit count");
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(nibble(hex[2 * i]) << 4 | nibble(hex[2 * i + 1]));
  }
  return out;
}

}  // namespace nanocost::testing
