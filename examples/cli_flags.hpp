#pragma once

/// \file cli_flags.hpp
/// Checked numeric flag values shared by deck_runner, sscl-lint and
/// sscl-serve.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>

#include "util/units.hpp"

namespace sscl::cli {

/// The value of numeric flag \p flag of \p tool: a decimal integer in
/// [0, max]. A sign, trailing characters or an out-of-range value prints
/// "<tool>: invalid value '<text>' for <flag>" and exits with status 2.
inline std::uint64_t parse_count(const char* tool, std::string_view text,
                                 const char* flag, std::uint64_t max) {
  const std::optional<std::uint64_t> value = util::parse_decimal(text, max);
  if (!value) {
    std::fprintf(stderr, "%s: invalid value '%.*s' for %s\n", tool,
                 static_cast<int>(text.size()), text.data(), flag);
    std::exit(2);
  }
  return *value;
}

}  // namespace sscl::cli
