// Whole-token number parsing shared by the command-line tools (dcolor,
// dcolor-import): every numeric flag value and positional goes through
// parse_number, so a malformed number is a usage error, never a silently
// truncated or wrapped value.
#pragma once

#include <charconv>
#include <iostream>
#include <limits>
#include <string_view>
#include <system_error>

namespace deltacolor::cli {

/// The program name that prefixes each diagnostic; each tool defines it.
extern const char kProgramName[];

/// The whole token must parse as a T in [lo, hi]. Junk (empty, trailing
/// characters, a sign on an unsigned value, overflow, out of range) prints
/// one line naming the argument and returns false; the caller then exits
/// with its usage code before anything is written.
template <typename T>
bool parse_number(std::string_view token, std::string_view name, T* out,
                  T lo = std::numeric_limits<T>::lowest(),
                  T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end ||
      !(value >= lo && value <= hi)) {
    std::cerr << kProgramName << ": invalid " << name << " '" << token
              << "' (need a number in [" << lo << ", " << hi << "])\n";
    return false;
  }
  *out = value;
  return true;
}

}  // namespace deltacolor::cli
