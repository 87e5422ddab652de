#include "primitives/degree_splitting.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace deltacolor {

namespace {

// One halving pass over the edges flagged `active`: writes 0/1 into `side`
// for every active edge. Edges are abstract (endpoint node ids); parallel
// edges and even self-parallel structures are fine since everything is
// indexed by edge position.
void halve(int num_nodes, const std::vector<std::pair<int, int>>& edges,
           const NodeMask& active, std::vector<int>& side,
           std::uint64_t seed, int segment_length) {
  const std::size_t m = edges.size();
  // Edge-end pairing per node: consecutive active incident edge-ends pair
  // up. Ends are indexed 2e (at edges[e].first) and 2e+1 (at .second).
  std::vector<std::size_t> partner(2 * m, ~std::size_t{0});
  {
    std::vector<std::vector<std::size_t>> ends_at(
        static_cast<std::size_t>(num_nodes));
    for (std::size_t e = 0; e < m; ++e) {
      if (!active[e]) continue;
      ends_at[static_cast<std::size_t>(edges[e].first)].push_back(2 * e);
      ends_at[static_cast<std::size_t>(edges[e].second)].push_back(2 * e + 1);
    }
    for (const auto& ends : ends_at) {
      for (std::size_t i = 0; i + 1 < ends.size(); i += 2) {
        partner[ends[i]] = ends[i + 1];
        partner[ends[i + 1]] = ends[i];
      }
    }
  }
  const auto kNone = ~std::size_t{0};
  auto other_end = [](std::size_t end) { return end ^ std::size_t{1}; };

  // Walk extraction: each active edge lies on exactly one path or cycle.
  NodeMask visited(m, 0);
  std::vector<std::size_t> walk;  // edge indices in walk order
  for (std::size_t start = 0; start < m; ++start) {
    if (!active[start] || visited[start]) continue;
    // Rewind from end 2*start backwards to a walk head (an unpaired end),
    // or detect a cycle when the rewind re-enters the start edge.
    std::size_t head_end = 2 * start;
    {
      std::size_t end = 2 * start;
      while (partner[end] != kNone) {
        const std::size_t prev = partner[end];  // an end of previous edge
        if (prev / 2 == start) break;           // cycle closed
        end = other_end(prev);
      }
      head_end = end;  // path head, or an arbitrary cycle cut point
    }
    // March forward from the head, collecting the walk.
    walk.clear();
    std::size_t enter = head_end;
    while (true) {
      const std::size_t e = enter / 2;
      walk.push_back(e);
      visited[e] = 1;
      const std::size_t exit = other_end(enter);
      const std::size_t next = partner[exit];
      if (next == kNone || visited[next / 2]) break;
      enter = next;
    }
    // Chop into segments with a per-walk random offset; alternate within
    // each segment (this is what a distributed implementation achieves with
    // list symmetry breaking in O(segment_length + log* n) rounds).
    const std::uint64_t offset =
        hash_mix(seed, head_end, static_cast<std::uint64_t>(walk.size())) %
        static_cast<std::uint64_t>(segment_length);
    for (std::size_t i = 0; i < walk.size(); ++i) {
      const std::size_t pos = i + offset;
      const std::size_t within =
          pos % static_cast<std::size_t>(segment_length);
      side[walk[i]] = static_cast<int>(within % 2);
    }
  }
}

}  // namespace

DegreeSplitResult degree_split_edges(
    int num_nodes, const std::vector<std::pair<int, int>>& edges, int levels,
    int segment_length, LocalContext& ctx) {
  DefaultPhase scope(ctx, "degree-split");
  DC_CHECK(levels >= 1 && segment_length >= 2);
  for (const auto& [a, b] : edges)
    DC_CHECK(a >= 0 && a < num_nodes && b >= 0 && b < num_nodes);
  DegreeSplitResult res;
  res.num_parts = 1 << levels;
  res.part.assign(edges.size(), 0);

  NodeMask active(edges.size(), 0);
  std::vector<int> side(edges.size(), 0);
  for (int level = 0; level < levels; ++level) {
    // Split every current part independently; edges of part p move to
    // 2p + side. All 2^level sub-splits run in parallel in LOCAL. The
    // snapshot keeps part-p membership fixed while earlier sub-splits of
    // this level already write the doubled indices.
    const std::vector<int> before = res.part;
    for (int p = 0; p < (1 << level); ++p) {
      for (std::size_t e = 0; e < edges.size(); ++e)
        active[e] = before[e] == p;
      halve(num_nodes, edges, active, side, hash_mix(ctx.seed(), level, p),
            segment_length);
      for (std::size_t e = 0; e < edges.size(); ++e)
        if (active[e]) res.part[e] = 2 * p + side[e];
    }
    res.rounds += 1 + segment_length + log_star(num_nodes + 2);
  }
  ctx.charge(res.rounds);
  return res;
}

DegreeSplitResult degree_split(const Graph& g, int levels, int segment_length,
                               LocalContext& ctx) {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(g.num_edges());
  for (const auto& [u, v] : g.edges())
    edges.emplace_back(static_cast<int>(u), static_cast<int>(v));
  return degree_split_edges(static_cast<int>(g.num_nodes()), edges, levels,
                            segment_length, ctx);
}

std::vector<int> part_degrees(const Graph& g, const DegreeSplitResult& split,
                              int part) {
  std::vector<int> deg(g.num_nodes(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (split.part[e] != part) continue;
    const auto [u, v] = g.endpoints(e);
    ++deg[u];
    ++deg[v];
  }
  return deg;
}

}  // namespace deltacolor
