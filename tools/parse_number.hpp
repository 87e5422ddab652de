// Number arguments of the command-line tools (dcolor, dcolor-import):
// every numeric flag value and positional goes through parse_number, the
// whole-token rule of common/parse.hpp plus a usage message.
#pragma once

#include <iostream>
#include <limits>
#include <string_view>

#include "common/parse.hpp"

namespace deltacolor::cli {

/// The program name that prefixes each diagnostic; each tool defines it.
extern const char kProgramName[];

/// Junk prints one line naming the argument and returns false; the caller
/// then exits with its usage code before anything is written.
template <typename T>
bool parse_number(std::string_view token, std::string_view name, T* out,
                  T lo = std::numeric_limits<T>::lowest(),
                  T hi = std::numeric_limits<T>::max()) {
  if (parse_whole(token, out, lo, hi)) return true;
  std::cerr << kProgramName << ": invalid " << name << " '" << token
            << "' (need a number in [" << lo << ", " << hi << "])\n";
  return false;
}

}  // namespace deltacolor::cli
