#pragma once

/// \file units.hpp
/// Engineering-notation formatting and parsing ("4.7n", "1.2meg", "800m")
/// as used by the SPICE-style netlist parser and by all result tables,
/// the round-trippable form of byte-stable outputs, plus the strict
/// decimal counts of command-line flags and the serve wire protocol.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace sscl::util {

/// Format \p value with an SI prefix and \p digits significant digits,
/// e.g. 4.7e-9 -> "4.7n". Values exactly zero format as "0".
std::string format_si(double value, int digits = 4);

/// Format \p value with an SI prefix followed by \p unit, e.g. "4.7nA".
std::string format_si(double value, std::string_view unit, int digits);

/// Format \p value with "%.17g", which round-trips every double: the
/// form of every number in the byte-comparable outputs (measure and
/// Monte-Carlo CSVs, serve payloads, trace exports).
std::string format_g17(double value);

/// Parse a SPICE-style engineering number: an optional sign, mantissa and
/// either an exponent ("1e-9") or an SI suffix. Recognised suffixes
/// (case-insensitive): f p n u m k meg g t, plus "mil" (2.54e-5, SPICE
/// compatibility). Trailing unit letters after the suffix are ignored
/// ("10pF" parses as 10e-12). Returns std::nullopt on malformed input.
std::optional<double> parse_si(std::string_view text);

/// Parse \p text as a whole word of decimal digits no larger than
/// \p max. A sign, whitespace, any other character, an empty word or an
/// out-of-range value returns std::nullopt.
std::optional<std::uint64_t> parse_decimal(std::string_view text,
                                           std::uint64_t max = UINT64_MAX);

}  // namespace sscl::util
