// Whole-token number parsing, the one rule for every number the library
// and its tools read from outside (environment variables, fault specs,
// command-line arguments): the whole token must be one number in range, so
// junk is an error, never a truncated, wrapped or ignored value.
#pragma once

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

namespace deltacolor {

/// True iff the whole of `token` is a T in [lo, hi] (no sign on an
/// unsigned value, no trailing characters, no overflow); the value then
/// lands in *out, which is left alone otherwise.
template <typename T>
bool parse_whole(std::string_view token, T* out,
                 T lo = std::numeric_limits<T>::lowest(),
                 T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end ||
      !(value >= lo && value <= hi))
    return false;
  *out = value;
  return true;
}

/// The number in environment variable `name`, or nullopt when it is unset
/// or empty. Any other value must be a whole T in [lo, hi], or the process
/// exits 2 with one line naming the variable, as a malformed
/// DELTACOLOR_FAULTS does: an ignored knob makes a run measure something
/// other than what was asked for. std::_Exit, because a pool worker may
/// read first, and std::exit's static destructors would join it.
template <typename T>
std::optional<T> env_number(const char* name, T lo, T hi) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return std::nullopt;
  T value{};
  if (!parse_whole(text, &value, lo, hi)) {
    std::cerr << "deltacolor: invalid " << name << "='" << text
              << "' (need a number in [" << lo << ", " << hi << "])\n";
    std::_Exit(2);
  }
  return value;
}

}  // namespace deltacolor
