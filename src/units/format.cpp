#include "nanocost/units/format.hpp"

#include <array>
#include <cmath>
#include <cstdio>

namespace nanocost::units {

namespace {

std::string printf_to_string(const char* fmt, double v) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), fmt, v);
  return std::string(buf.data());
}

std::string printf_to_string2(const char* fmt, double v, const char* s) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), fmt, v, s);
  return std::string(buf.data());
}

}  // namespace

std::string format_fixed(double v, int digits) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*f", digits, v);
  return std::string(buf.data());
}

std::string format_sci(double v, int digits) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*e", digits, v);
  return std::string(buf.data());
}

std::string format_si(double v) {
  struct Scale {
    double threshold;
    double divisor;
    const char* suffix;
  };
  static constexpr std::array<Scale, 4> kScales{{
      {1e12, 1e12, "T"},
      {1e9, 1e9, "G"},
      {1e6, 1e6, "M"},
      {1e3, 1e3, "k"},
  }};
  const double mag = std::fabs(v);
  for (const auto& s : kScales) {
    if (mag >= s.threshold) {
      return printf_to_string2("%.3g%s", v / s.divisor, s.suffix);
    }
  }
  return printf_to_string("%.4g", v);
}

std::string format_money(Money m) {
  const double v = m.value();
  const double mag = std::fabs(v);
  // Appended: GCC 12 flags `"$" + std::string` with a false -Wrestrict.
  if (mag >= 1e3) return std::string("$").append(format_si(v));
  if (mag >= 0.01 || v == 0.0) return printf_to_string("$%.2f", v);
  // Sub-cent values (per-transistor costs) need scientific notation.
  return printf_to_string("$%.3e", v);
}

std::string format_feature_size(Micrometers lambda) {
  if (lambda.value() < 1.0) {
    return printf_to_string("%.0f nm", lambda.to_nanometers().value());
  }
  return printf_to_string("%.2f um", lambda.value());
}

std::string format_area(SquareCentimeters a) {
  return printf_to_string("%.3g cm^2", a.value());
}

std::string format_percent(Probability p) {
  return printf_to_string("%.1f%%", p.value() * 100.0);
}

}  // namespace nanocost::units
