#include "graph/checker.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <sstream>

#include "common/check.hpp"

namespace deltacolor {

std::string ColoringReport::describe() const {
  std::ostringstream os;
  os << (proper ? "proper" : "IMPROPER") << ", "
     << (complete ? "complete" : "INCOMPLETE") << ", colors_used="
     << colors_used << ", max_color=" << max_color
     << ", conflicts=" << conflicts << ", uncolored=" << uncolored;
  return os.str();
}

namespace {

// The number of distinct non-negative values in `color`, none above
// `max_color`. A bitmap over [0, max_color] when it takes no more memory
// than the coloring itself (always so for colors below n), else a sorted
// copy: no allocation grows with a large color value.
int count_distinct_colors(const std::vector<Color>& color, Color max_color) {
  if (max_color < 0) return 0;
  const std::size_t range = static_cast<std::size_t>(max_color) + 1;
  if (range / 8 <= color.size() * sizeof(Color)) {
    std::vector<std::uint64_t> seen((range + 63) / 64, 0);
    for (const Color c : color) {
      if (c < 0) continue;
      const auto bit = static_cast<std::size_t>(c);
      seen[bit / 64] |= std::uint64_t{1} << (bit % 64);
    }
    int used = 0;
    for (const std::uint64_t word : seen) used += __builtin_popcountll(word);
    return used;
  }
  std::vector<Color> sorted;
  for (const Color c : color)
    if (c >= 0) sorted.push_back(c);
  std::sort(sorted.begin(), sorted.end());
  return static_cast<int>(std::unique(sorted.begin(), sorted.end()) -
                          sorted.begin());
}

}  // namespace

ColoringReport check_coloring(const Graph& g,
                              const std::vector<Color>& color) {
  DC_CHECK(color.size() == g.num_nodes());
  ColoringReport r;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (color[v] < 0) {  // kNoColor or any other negative value
      r.complete = false;
      ++r.uncolored;
    } else {
      r.max_color = std::max(r.max_color, color[v]);
    }
  }
  // Adjacency iteration (each edge once, via its lower endpoint) instead of
  // the edge list: on a mapped graph this keeps the file's edges section
  // untouched, so verification stays within the offsets+adjacency pages.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (color[u] < 0) continue;
    for (const NodeId v : g.neighbors(u)) {
      if (v > u && color[u] == color[v]) {
        r.proper = false;
        ++r.conflicts;
      }
    }
  }
  r.colors_used = count_distinct_colors(color, r.max_color);
  return r;
}

std::optional<std::pair<NodeId, NodeId>> find_partial_conflict(
    const Graph& g, const std::vector<Color>& color) {
  DC_CHECK(color.size() == g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (color[u] == kNoColor) continue;
    for (const NodeId v : g.neighbors(u))
      if (v > u && color[u] == color[v]) return {{u, v}};
  }
  return std::nullopt;
}

bool is_proper_coloring(const Graph& g, const std::vector<Color>& color,
                        int num_colors) {
  return check_coloring(g, color).valid_for(num_colors);
}

bool is_delta_coloring(const Graph& g, const std::vector<Color>& color) {
  return is_proper_coloring(g, color, g.max_degree());
}

bool is_matching(const Graph& g, const std::vector<bool>& in_matching) {
  DC_CHECK(in_matching.size() == g.num_edges());
  std::vector<int> matched(g.num_nodes(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!in_matching[e]) continue;
    const auto [u, v] = g.endpoints(e);
    if (++matched[u] > 1 || ++matched[v] > 1) return false;
  }
  return true;
}

bool is_maximal_matching(const Graph& g,
                         const std::vector<bool>& in_matching) {
  if (!is_matching(g, in_matching)) return false;
  std::vector<bool> matched(g.num_nodes(), false);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!in_matching[e]) continue;
    const auto [u, v] = g.endpoints(e);
    matched[u] = matched[v] = true;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    if (!matched[u] && !matched[v]) return false;
  }
  return true;
}

bool is_independent_set(const Graph& g, const std::vector<bool>& in_set) {
  DC_CHECK(in_set.size() == g.num_nodes());
  for (const auto& [u, v] : g.edges())
    if (in_set[u] && in_set[v]) return false;
  return true;
}

bool is_maximal_independent_set(const Graph& g,
                                const std::vector<bool>& in_set) {
  if (!is_independent_set(g, in_set)) return false;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in_set[v]) continue;
    bool dominated = false;
    for (const NodeId u : g.neighbors(v)) {
      if (in_set[u]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;
  }
  return true;
}

namespace {

// Multi-source BFS distance from the flagged set, capped at `cap`.
std::vector<int> distance_from_set(const Graph& g,
                                   const std::vector<bool>& in_set, int cap) {
  std::vector<int> dist(g.num_nodes(), -1);
  std::queue<NodeId> q;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in_set[v]) {
      dist[v] = 0;
      q.push(v);
    }
  }
  while (!q.empty()) {
    const NodeId x = q.front();
    q.pop();
    if (dist[x] >= cap) continue;
    for (const NodeId y : g.neighbors(x)) {
      if (dist[y] == -1) {
        dist[y] = dist[x] + 1;
        q.push(y);
      }
    }
  }
  return dist;
}

}  // namespace

bool dominates_within(const Graph& g, const std::vector<bool>& in_set,
                      int radius) {
  const auto dist = distance_from_set(g, in_set, radius);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (dist[v] == -1) return false;
  return true;
}

bool pairwise_distance_greater(const Graph& g, const std::vector<bool>& in_set,
                               int min_distance) {
  // BFS from each member to depth min_distance; reject if another member is
  // reached. Intended for verification, not hot paths.
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (!in_set[s]) continue;
    std::vector<int> dist(g.num_nodes(), -1);
    std::queue<NodeId> q;
    dist[s] = 0;
    q.push(s);
    while (!q.empty()) {
      const NodeId x = q.front();
      q.pop();
      if (dist[x] >= min_distance) continue;
      for (const NodeId y : g.neighbors(x)) {
        if (dist[y] != -1) continue;
        dist[y] = dist[x] + 1;
        if (in_set[y]) return false;
        q.push(y);
      }
    }
  }
  return true;
}

bool is_ruling_set(const Graph& g, const std::vector<bool>& in_set, int alpha,
                   int beta) {
  return pairwise_distance_greater(g, in_set, alpha - 1) &&
         dominates_within(g, in_set, beta);
}

bool is_clique(const Graph& g, const std::vector<NodeId>& nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      if (!g.has_edge(nodes[i], nodes[j])) return false;
  return true;
}

bool respects_lists(const Graph& g, const std::vector<Color>& color,
                    const std::vector<std::vector<Color>>& lists) {
  DC_CHECK(color.size() == g.num_nodes());
  DC_CHECK(lists.size() == g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (color[v] == kNoColor) return false;
    if (std::find(lists[v].begin(), lists[v].end(), color[v]) ==
        lists[v].end())
      return false;
  }
  for (const auto& [u, v] : g.edges())
    if (color[u] == color[v]) return false;
  return true;
}

}  // namespace deltacolor
