#include "util/units.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sscl::util {

namespace {

struct Prefix {
  double scale;
  const char* symbol;
};

// Ordered from largest to smallest so the formatter can pick the first
// prefix whose magnitude does not exceed the value.
constexpr Prefix kPrefixes[] = {
    {1e12, "T"}, {1e9, "G"}, {1e6, "M"},  {1e3, "k"},  {1.0, ""},
    {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
    {1e-18, "a"},
};

}  // namespace

std::string format_si(double value, int digits) {
  if (value == 0.0) return "0";
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";

  const double magnitude = std::fabs(value);
  const Prefix* chosen = &kPrefixes[sizeof(kPrefixes) / sizeof(kPrefixes[0]) - 1];
  for (const Prefix& p : kPrefixes) {
    if (magnitude >= p.scale * 0.9999999) {
      chosen = &p;
      break;
    }
  }

  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g%s", digits, value / chosen->scale,
                chosen->symbol);
  return buf;
}

std::string format_si(double value, std::string_view unit, int digits) {
  return format_si(value, digits) + std::string(unit);
}

std::string format_g17(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::optional<double> parse_si(std::string_view text) {
  if (text.empty()) return std::nullopt;

  // Parse the numeric part with strtod; it stops at the suffix.
  std::string owned(text);
  const char* begin = owned.c_str();
  char* end = nullptr;
  const double mantissa = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;

  std::string_view rest(end);
  if (rest.empty()) return mantissa;

  // Lower-case copy of the suffix for comparison.
  std::string suffix;
  suffix.reserve(rest.size());
  for (char c : rest) suffix.push_back(static_cast<char>(std::tolower(c)));

  auto starts_with = [&](std::string_view s) {
    return suffix.size() >= s.size() && suffix.compare(0, s.size(), s) == 0;
  };

  double scale = 1.0;
  if (starts_with("meg")) {
    scale = 1e6;
  } else if (starts_with("mil")) {
    scale = 2.54e-5;
  } else if (rest[0] == 'M') {
    // Case-sensitive exception: "M" is mega (matching format_si output),
    // "m" is milli. All other prefixes are case-insensitive as in SPICE.
    scale = 1e6;
  } else {
    switch (suffix[0]) {
      case 't': scale = 1e12; break;
      case 'g': scale = 1e9; break;
      case 'k': scale = 1e3; break;
      case 'm': scale = 1e-3; break;
      case 'u': scale = 1e-6; break;
      case 'n': scale = 1e-9; break;
      case 'p': scale = 1e-12; break;
      case 'f': scale = 1e-15; break;
      case 'a': scale = 1e-18; break;
      default:
        // Unknown leading letter: treat the whole suffix as a unit name
        // (e.g. "10V" or "3Hz") only if it is alphabetic.
        for (char c : suffix) {
          if (!std::isalpha(static_cast<unsigned char>(c))) return std::nullopt;
        }
        return mantissa;
    }
  }

  // Whatever follows the prefix must be alphabetic unit text ("nF", "kHz").
  const std::size_t prefix_len = starts_with("meg") || starts_with("mil") ? 3 : 1;
  for (std::size_t i = prefix_len; i < suffix.size(); ++i) {
    if (!std::isalpha(static_cast<unsigned char>(suffix[i]))) return std::nullopt;
  }
  return mantissa * scale;
}

std::optional<std::uint64_t> parse_decimal(std::string_view text,
                                           std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  // from_chars on an unsigned type takes neither '+' nor '-'.
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value > max) {
    return std::nullopt;
  }
  return value;
}

}  // namespace sscl::util
