#include "primitives/linial.hpp"

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"  // next_prime

namespace deltacolor {

namespace detail {

std::uint64_t linial_pow_sat(std::uint64_t q, int e) {
  std::uint64_t r = 1;
  for (int i = 0; i < e; ++i) {
    if (r > ~std::uint64_t{0} / q) return ~std::uint64_t{0};
    r *= q;
  }
  return r;
}

int linial_degree_for(std::uint64_t q, std::uint64_t max_val) {
  // A saturated power stands for a true power above 2^64 - 1 (which is no
  // perfect power), so it exceeds every max_val, 2^64 - 1 included.
  constexpr std::uint64_t kSaturated = ~std::uint64_t{0};
  int d = 0;
  for (;;) {
    const std::uint64_t p = linial_pow_sat(q, d + 1);
    if (p == kSaturated || p > max_val) return d;
    ++d;
  }
}

std::pair<std::uint64_t, int> linial_choose_field(int delta,
                                                  std::uint64_t max_val) {
  for (int q = next_prime(std::max(2, delta + 2));; q = next_prime(q + 1)) {
    const int d = linial_degree_for(static_cast<std::uint64_t>(q), max_val);
    if (static_cast<std::uint64_t>(q) >
        static_cast<std::uint64_t>(delta) * static_cast<std::uint64_t>(d))
      return {static_cast<std::uint64_t>(q), d};
  }
}

std::uint32_t* linial_scratch(std::size_t words) {
  thread_local std::vector<std::uint32_t> scratch;
  if (scratch.size() < words) scratch.resize(words);
  return scratch.data();
}

}  // namespace detail

}  // namespace deltacolor
