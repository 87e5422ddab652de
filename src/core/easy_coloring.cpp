#include "core/easy_coloring.hpp"

#include <algorithm>
#include <queue>

#include "common/check.hpp"
#include "primitives/list_coloring.hpp"
#include "primitives/ruling_set.hpp"

namespace deltacolor {

bool color_even_cycle_from_lists(const std::vector<std::vector<Color>>& lists,
                                 std::vector<Color>& out) {
  const std::size_t k = lists.size();
  if (k < 3) return false;
  for (const auto& list : lists)
    if (list.size() < 2) return false;
  out.assign(k, kNoColor);

  auto contains = [](const std::vector<Color>& list, Color c) {
    return std::find(list.begin(), list.end(), c) != list.end();
  };
  // Seed: adjacent pair (i, i+1) with a color in list(i) \ list(i+1).
  std::size_t seed = k;
  Color seed_color = kNoColor;
  for (std::size_t i = 0; i < k && seed == k; ++i) {
    for (const Color c : lists[i]) {
      if (!contains(lists[(i + 1) % k], c)) {
        seed = i;
        seed_color = c;
        break;
      }
    }
  }
  if (seed == k) {
    // Every list contains its successor's colors; with sizes >= 2 and the
    // minimal tight case (all lists equal, size 2) this means all lists
    // share the same two colors: alternate them — possible iff k is even.
    if (k % 2 != 0) {
      // Fall back: some list has > 2 colors; color greedily starting
      // after a vertex with a spare color, ending at it.
      std::size_t big = k;
      for (std::size_t i = 0; i < k && big == k; ++i)
        if (lists[i].size() >= 3) big = i;
      if (big == k) return false;  // odd cycle, all lists of size 2: no
      for (std::size_t step = 1; step <= k; ++step) {
        const std::size_t v = (big + step) % k;
        for (const Color c : lists[v]) {
          const Color prev = out[(v + k - 1) % k];
          const Color next = out[(v + 1) % k];
          if (c != prev && c != next) {
            out[v] = c;
            break;
          }
        }
        if (out[v] == kNoColor) return false;
      }
      return true;
    }
    // No seed means list(i) ⊆ list(i+1) around the cycle, i.e. all lists
    // are equal as sets; alternate two of their shared colors.
    const Color a = lists[0][0], b = lists[0][1];
    for (std::size_t i = 0; i < k; ++i) out[i] = i % 2 == 0 ? a : b;
    return true;
  }
  // Color the seed, then sweep around the cycle away from (seed+1); each
  // vertex sees one colored neighbor; the final vertex (seed+1) sees two,
  // but the seed's color is absent from its list.
  out[seed] = seed_color;
  for (std::size_t step = 1; step <= k - 1; ++step) {
    const std::size_t v = (seed + k - step) % k;  // walk backwards
    const Color prev = out[(v + 1) % k];          // already colored side
    const Color other = out[(v + k - 1) % k];     // colored only at the end
    for (const Color c : lists[v]) {
      if (c != prev && c != other) {
        out[v] = c;
        break;
      }
    }
    if (out[v] == kNoColor) return false;
  }
  return true;
}

void color_loophole(const Graph& g, const Loophole& l,
                    std::vector<Color>& color) {
  const int delta = g.max_degree();
  const auto& vs = l.vertices;
  // Effective lists: full palette minus colored neighbors outside l.
  std::vector<std::vector<Color>> lists(vs.size());
  for (std::size_t i = 0; i < vs.size(); ++i) {
    DC_CHECK_MSG(color[vs[i]] == kNoColor,
                 "loophole vertex " << vs[i] << " already colored");
    PaletteSet free(delta);
    free.fill();
    for (const NodeId u : g.neighbors(vs[i])) free.erase(color[u]);
    free.for_each([&](Color c) { lists[i].push_back(c); });
  }
  // Fast path (Lemma 7 constructive): a chordless even cycle with lists of
  // size >= 2 is colored directly.
  if (vs.size() >= 4) {
    bool chordless = true;
    for (std::size_t i = 0; i < vs.size() && chordless; ++i)
      for (std::size_t j = i + 2; j < vs.size() && chordless; ++j) {
        if (i == 0 && j == vs.size() - 1) continue;  // cycle edge
        if (g.has_edge(vs[i], vs[j])) chordless = false;
      }
    if (chordless) {
      std::vector<Color> out;
      if (color_even_cycle_from_lists(lists, out)) {
        for (std::size_t i = 0; i < vs.size(); ++i) color[vs[i]] = out[i];
        return;
      }
    }
  }

  // Backtracking over the (<= 6 vertex) induced subgraph, most-constrained
  // vertex first. Lemma 7 guarantees a solution exists for genuine
  // loopholes, and the search space is tiny.
  std::vector<Color> assign(vs.size(), kNoColor);
  NodeMask done(vs.size(), 0);
  long budget = 4'000'000;
  auto solve = [&](auto&& self) -> bool {
    // Pick the unassigned vertex with the fewest remaining options.
    int best = -1;
    std::size_t best_options = ~std::size_t{0};
    std::vector<Color> best_list;
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (done[i]) continue;
      std::vector<Color> remaining;
      for (const Color c : lists[i]) {
        bool ok = true;
        for (std::size_t j = 0; j < vs.size(); ++j)
          if (done[j] && assign[j] == c && g.has_edge(vs[i], vs[j]))
            ok = false;
        if (ok) remaining.push_back(c);
      }
      if (remaining.size() < best_options) {
        best = static_cast<int>(i);
        best_options = remaining.size();
        best_list = std::move(remaining);
      }
    }
    if (best == -1) return true;  // all assigned
    for (const Color c : best_list) {
      if (--budget < 0) return false;
      assign[static_cast<std::size_t>(best)] = c;
      done[static_cast<std::size_t>(best)] = 1;
      if (self(self)) return true;
      done[static_cast<std::size_t>(best)] = 0;
    }
    return false;
  };
  DC_CHECK_MSG(solve(solve),
               "loophole brute-force coloring failed (not deg-list "
               "satisfiable?) — loophole size "
                   << vs.size());
  for (std::size_t i = 0; i < vs.size(); ++i) color[vs[i]] = assign[i];
}

EasyColoringStats color_easy_and_loopholes(const Graph& g,
                                           const LoopholeSet& loopholes,
                                           std::vector<Color>& color,
                                           LocalContext& lctx,
                                           const std::string& phase) {
  RoundLedger& ledger = lctx.ledger();
  EasyColoringStats stats;
  const int delta = g.max_degree();
  const NodeId n = g.num_nodes();

  // Only loopholes that are still fully uncolored can serve as slack
  // reservoirs (all are, when hard cliques were colored first).
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < loopholes.loopholes.size(); ++i) {
    bool ok = true;
    for (const NodeId v : loopholes.loopholes[i].vertices)
      if (color[v] != kNoColor) ok = false;
    if (ok) live.push_back(i);
  }
  stats.voted_loopholes = static_cast<int>(live.size());

  bool anything_uncolored = false;
  for (NodeId v = 0; v < n; ++v)
    if (color[v] == kNoColor) anything_uncolored = true;
  if (!anything_uncolored) return stats;
  DC_CHECK_MSG(!live.empty(),
               "uncolored vertices remain but no loophole is available");
  // Wall-clock per sub-phase, charged under the sub-phases' round labels.
  PhaseLaps laps(ledger);

  // Virtual graph G_L: one node per live loophole; edges between loopholes
  // that intersect or touch via a graph edge.
  std::vector<std::vector<int>> member_of(n);
  for (std::size_t k = 0; k < live.size(); ++k)
    for (const NodeId v : loopholes.loopholes[live[k]].vertices)
      member_of[v].push_back(static_cast<int>(k));
  std::vector<std::pair<NodeId, NodeId>> gl_edges;
  for (std::size_t k = 0; k < live.size(); ++k) {
    for (const NodeId v : loopholes.loopholes[live[k]].vertices) {
      auto link = [&](NodeId u) {
        for (const int o : member_of[u])
          if (o != static_cast<int>(k))
            gl_edges.emplace_back(
                static_cast<NodeId>(std::min<std::size_t>(k, o)),
                static_cast<NodeId>(std::max<std::size_t>(k, o)));
      };
      link(v);
      for (const NodeId u : g.neighbors(v)) link(u);
    }
  }
  Graph gl(static_cast<NodeId>(live.size()), std::move(gl_edges));
  {
    // In LOCAL a loophole is identified by its full member-id list; we
    // compress those lists to their lexicographic ranks (unique, and
    // consistent under identifier permutations).
    std::vector<std::pair<std::vector<std::uint64_t>, std::size_t>> keys;
    keys.reserve(live.size());
    for (std::size_t k = 0; k < live.size(); ++k) {
      std::vector<std::uint64_t> key;
      for (const NodeId v : loopholes.loopholes[live[k]].vertices)
        key.push_back(g.id(v));
      std::sort(key.begin(), key.end());
      keys.emplace_back(std::move(key), k);
    }
    std::sort(keys.begin(), keys.end());
    std::vector<std::uint64_t> ids(live.size());
    for (std::size_t rank = 0; rank < keys.size(); ++rank)
      ids[keys[rank].second] = rank;
    gl.set_ids(std::move(ids));
  }

  // Ruling set on G_L: the selected loopholes are pairwise non-adjacent
  // and non-intersecting. One G_L round costs <= 7 real rounds (loophole
  // diameter <= 3, plus the connecting edge).
  RoundLedger gl_ledger;
  LocalContext gl_ctx(gl_ledger, lctx.engine(), lctx.seed());
  const RulingSetResult rs = ruling_set(gl, gl_ctx);
  ledger.charge(phase + "-ruling", gl_ledger.total(), 7);
  stats.ruling_domination_radius = rs.domination_radius;
  laps.lap(phase + "-ruling");

  NodeMask in_chosen_loophole(n, 0);
  for (std::size_t k = 0; k < live.size(); ++k) {
    if (!rs.in_set[k]) continue;
    ++stats.ruling_loopholes;
    for (const NodeId v : loopholes.loopholes[live[k]].vertices)
      in_chosen_loophole[v] = true;
  }

  // BFS layering from the chosen loopholes through uncolored vertices.
  std::vector<int> layer(n, -1);
  std::queue<NodeId> q;
  for (NodeId v = 0; v < n; ++v) {
    if (in_chosen_loophole[v]) {
      layer[v] = 0;
      q.push(v);
    }
  }
  int max_layer = 0;
  while (!q.empty()) {
    const NodeId x = q.front();
    q.pop();
    for (const NodeId y : g.neighbors(x)) {
      if (layer[y] != -1 || color[y] != kNoColor) continue;
      layer[y] = layer[x] + 1;
      max_layer = std::max(max_layer, layer[y]);
      q.push(y);
    }
  }
  for (NodeId v = 0; v < n; ++v)
    DC_CHECK_MSG(color[v] != kNoColor || layer[v] != -1,
                 "uncolored vertex " << v
                                     << " unreachable from any loophole");
  stats.layers = max_layer;
  ledger.charge(phase + "-bfs", max_layer + 1);
  laps.lap(phase + "-bfs");

  // Color layers outside-in; each layer-i vertex has an uncolored
  // layer-(i-1) neighbor, so each layer is a deg+1-list instance.
  const auto lists = uniform_lists(g, delta);
  for (int i = max_layer; i >= 1; --i) {
    NodeMask active(n, 0);
    for (NodeId v = 0; v < n; ++v)
      active[v] = layer[v] == i && color[v] == kNoColor;
    ScopedPhase layer_phase(lctx, phase + "-layers");
    deg_plus_one_list_color(g, active, lists, color, lctx);
  }
  laps.lap(phase + "-layers");

  // Finally the chosen loopholes, by brute force (Lemma 7). They are
  // pairwise non-adjacent, so all complete in parallel in O(1) rounds.
  for (std::size_t k = 0; k < live.size(); ++k)
    if (rs.in_set[k]) color_loophole(g, loopholes.loopholes[live[k]], color);
  ledger.charge(phase + "-loopholes", 3);
  laps.lap(phase + "-loopholes");
  return stats;
}

}  // namespace deltacolor
