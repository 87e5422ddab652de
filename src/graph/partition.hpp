// Degree-balanced contiguous split of a graph's nodes.
//
// degree_balanced_bounds assigns every node to exactly one of `parts`
// contiguous ranges whose (deg + 1)-weight sums are balanced. The engine's
// stable worker chunks (sync_runner.hpp) use it, so skewed-degree graphs
// do not leave one worker as every round's straggler. The bounds are a
// pure function of (degree sequence, parts, align).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"

namespace deltacolor {

/// Degree-balanced contiguous bounds over [0, n): part p owns nodes
/// [bounds[p], bounds[p+1]) whose (deg + 1)-weight sums to ~1/parts of the
/// total (2m + n). Boundaries round up to `align`-node groups (the engine
/// uses 64 so a cache line of word-sized state never straddles workers).
/// Parts may exceed n; trailing parts are then empty. O(n).
template <typename GraphT>
std::vector<std::size_t> degree_balanced_bounds(const GraphT& g, int parts,
                                                std::size_t align = 1) {
  DC_CHECK(parts >= 1);
  DC_CHECK(align >= 1);
  const std::size_t n = g.num_nodes();
  std::vector<std::size_t> bounds(static_cast<std::size_t>(parts) + 1, n);
  bounds[0] = 0;
  const std::uint64_t total = 2ull * g.num_edges() + n;  // sum of deg(v) + 1
  std::uint64_t seen = 0;
  std::size_t v = 0;
  for (int p = 1; p < parts; ++p) {
    const std::uint64_t target = total * static_cast<std::uint64_t>(p) /
                                 static_cast<std::uint64_t>(parts);
    while (v < n && seen < target) {
      seen += static_cast<std::uint64_t>(g.degree(static_cast<NodeId>(v))) + 1;
      ++v;
    }
    const std::size_t aligned = std::min(n, (v + align - 1) / align * align);
    while (v < aligned) {
      seen += static_cast<std::uint64_t>(g.degree(static_cast<NodeId>(v))) + 1;
      ++v;
    }
    bounds[static_cast<std::size_t>(p)] = v;
  }
  return bounds;
}

}  // namespace deltacolor
