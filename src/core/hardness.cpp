#include "core/hardness.hpp"

#include "common/check.hpp"

namespace deltacolor {

Hardness classify_hardness(const Graph& g, const Acd& acd,
                           const LoopholeSet& loopholes) {
  Hardness h;
  h.is_hard.assign(acd.cliques.size(), true);
  h.in_hard.assign(g.num_nodes(), false);

  for (const auto& l : loopholes.loopholes) {
    for (const NodeId v : l.vertices) {
      const int c = acd.clique_of[v];
      if (c != -1) h.is_hard[static_cast<std::size_t>(c)] = false;
    }
  }
  // A loophole vertex also certifies easiness of adjacent... no: Definition
  // 8 only demands the clique *contain* a loophole vertex; detected
  // loopholes list their member vertices explicitly, handled above.

  for (std::size_t c = 0; c < acd.cliques.size(); ++c) {
    if (h.is_hard[c]) {
      ++h.num_hard;
      for (const NodeId v : acd.cliques[c]) h.in_hard[v] = true;
    } else {
      ++h.num_easy;
    }
  }

  const int delta = g.max_degree();
  for (std::size_t c = 0; c < acd.cliques.size(); ++c) {
    if (!h.is_hard[c]) continue;
    const auto& members = acd.cliques[c];
    // Lemma 9.1/9.2: clique, and every member has degree exactly Delta
    // (internal |C|-1 plus e_C = Delta - |C| + 1 external).
    for (const NodeId v : members) {
      DC_CHECK_MSG(g.degree(v) == delta,
                   "hard clique member " << v << " has degree "
                                         << g.degree(v) << " != " << delta);
      int internal = 0;
      for (const NodeId u : g.neighbors(v))
        if (acd.clique_of[u] == static_cast<int>(c)) ++internal;
      DC_CHECK_MSG(internal == static_cast<int>(members.size()) - 1,
                   "hard AC " << c << " is not a clique at member " << v);
    }
  }
  // Lemma 9.3: no vertex outside a hard clique has two neighbors in it.
  // last_seen[c] = last w that had a neighbor in clique c; since w
  // ascends, a repeat within one w's scan means two neighbors in c.
  std::vector<int> last_seen(acd.cliques.size(), -1);
  for (NodeId w = 0; w < g.num_nodes(); ++w) {
    for (const NodeId u : g.neighbors(w)) {
      const int c = acd.clique_of[u];
      if (c == -1 || c == acd.clique_of[w] ||
          !h.is_hard[static_cast<std::size_t>(c)])
        continue;
      DC_CHECK_MSG(last_seen[static_cast<std::size_t>(c)] !=
                       static_cast<int>(w),
                   "outsider " << w << " has two neighbors in hard clique "
                               << c << " (undetected loophole)");
      last_seen[static_cast<std::size_t>(c)] = static_cast<int>(w);
    }
  }
  return h;
}

}  // namespace deltacolor
