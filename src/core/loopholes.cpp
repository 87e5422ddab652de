#include "core/loopholes.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <span>

#include "common/check.hpp"
#include "local/context.hpp"

namespace deltacolor {

bool is_valid_loophole(const Graph& g, const Loophole& l) {
  const auto& vs = l.vertices;
  if (vs.empty()) return false;
  for (const NodeId v : vs)
    if (v >= g.num_nodes()) return false;
  if (vs.size() == 1) return g.degree(vs[0]) < g.max_degree();
  // Even cycle of distinct vertices...
  if (vs.size() % 2 != 0 || vs.size() < 4) return false;
  auto sorted = vs;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    return false;
  for (std::size_t i = 0; i < vs.size(); ++i)
    if (!g.has_edge(vs[i], vs[(i + 1) % vs.size()])) return false;
  // ...that does not induce a clique.
  for (std::size_t i = 0; i < vs.size(); ++i)
    for (std::size_t j = i + 1; j < vs.size(); ++j)
      if (!g.has_edge(vs[i], vs[j])) return true;
  return false;
}

void LoopholeSet::add(const Graph& g, Loophole l) {
  DC_CHECK(is_valid_loophole(g, l));
  const int idx = static_cast<int>(loopholes.size());
  for (const NodeId v : l.vertices)
    if (vote_of[v] == -1) vote_of[v] = idx;
  loopholes.push_back(std::move(l));
}

std::optional<Loophole> find_loophole_through(const Graph& g, NodeId v,
                                              int max_vertices) {
  DC_CHECK(max_vertices <= 8);
  if (g.degree(v) < g.max_degree()) return Loophole{{v}};
  // DFS over simple paths from v; a neighbor closing back to v forms a
  // cycle, accepted if even, length >= 4, and non-clique.
  std::vector<NodeId> path{v};
  std::optional<Loophole> found;
  auto dfs = [&](auto&& self, NodeId x) -> void {
    if (found) return;
    for (const NodeId y : g.neighbors(x)) {
      if (found) return;
      if (y == v && path.size() >= 4 && path.size() % 2 == 0) {
        Loophole cand{path};
        if (is_valid_loophole(g, cand)) {
          found = std::move(cand);
          return;
        }
      }
      if (y == v) continue;
      if (static_cast<int>(path.size()) >= max_vertices) continue;
      if (std::find(path.begin(), path.end(), y) != path.end()) continue;
      path.push_back(y);
      self(self, y);
      path.pop_back();
    }
  };
  dfs(dfs, v);
  return found;
}

namespace {

// Deduplicating accumulator for detected loopholes + votes.
class Accumulator {
 public:
  Accumulator(const Graph& g, LoopholeSet& out) : g_(g), out_(out) {
    out_.vote_of.assign(g.num_nodes(), -1);
  }

  void add(Loophole l) {
    DC_CHECK_MSG(is_valid_loophole(g_, l),
                 "constructed witness is not a loophole");
    auto key = l.vertices;
    std::sort(key.begin(), key.end());
    const auto [it, inserted] =
        index_.try_emplace(std::move(key), out_.loopholes.size());
    if (inserted) out_.loopholes.push_back(std::move(l));
    const int idx = static_cast<int>(it->second);
    for (const NodeId v : out_.loopholes[static_cast<std::size_t>(idx)]
             .vertices)
      if (out_.vote_of[v] == -1) out_.vote_of[v] = idx;
  }

 private:
  const Graph& g_;
  LoopholeSet& out_;
  std::map<std::vector<NodeId>, std::size_t> index_;
};

}  // namespace

LoopholeSet find_loopholes_bruteforce(const Graph& g, int max_vertices) {
  LoopholeSet res;
  Accumulator acc(g, res);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (res.vote_of[v] != -1) continue;
    if (auto l = find_loophole_through(g, v, max_vertices)) acc.add(*l);
  }
  return res;
}

namespace {

// One AC pair {lo, hi}, lo < hi, joined by at least one cross edge, with
// its first two cross edges by edge id (edges[1] is kNoEdge for one edge).
struct AcPair {
  int lo = 0;
  int hi = 0;
  std::array<EdgeId, 2> edges{kNoEdge, kNoEdge};
};

// Sort key of the AC pair {a, b}: the lower AC in the high word.
std::uint64_t pair_key(int a, int b) {
  return (static_cast<std::uint64_t>(std::min(a, b)) << 32) |
         static_cast<std::uint64_t>(std::max(a, b));
}

// Common neighbors of u1, u2 restricted to clique `members`, excluding the
// given vertices; returns up to `want`.
std::vector<NodeId> common_in(const Graph& g, const std::vector<NodeId>& pool,
                              NodeId u1, NodeId u2,
                              const std::vector<NodeId>& exclude, int want) {
  std::vector<NodeId> out;
  for (const NodeId w : pool) {
    if (std::find(exclude.begin(), exclude.end(), w) != exclude.end())
      continue;
    if (g.has_edge(w, u1) && g.has_edge(w, u2)) {
      out.push_back(w);
      if (static_cast<int>(out.size()) == want) break;
    }
  }
  return out;
}

}  // namespace

LoopholeSet find_loopholes_dense(const Graph& g, const Acd& acd,
                                 RoundLedger& ledger) {
  LoopholeSet res;
  Accumulator acc(g, res);
  const int delta = g.max_degree();
  const NodeId n = g.num_nodes();

  // (a) degree loopholes.
  for (NodeId v = 0; v < n; ++v)
    if (g.degree(v) < delta) acc.add(Loophole{{v}});

  // Internal degrees (needed by (b)); cliques flagged per AC.
  std::vector<bool> ac_is_clique(acd.cliques.size(), true);
  for (std::size_t c = 0; c < acd.cliques.size(); ++c) {
    const auto& members = acd.cliques[c];
    for (const NodeId v : members) {
      int internal = 0;
      for (const NodeId u : g.neighbors(v))
        if (acd.clique_of[u] == static_cast<int>(c)) ++internal;
      if (internal != static_cast<int>(members.size()) - 1) {
        ac_is_clique[c] = false;
      }
    }
  }
  // (b) non-clique ACs: witness 4-cycle u1-u3-u2-u4 around a missing pair.
  for (std::size_t c = 0; c < acd.cliques.size(); ++c) {
    if (ac_is_clique[c]) continue;
    const auto& members = acd.cliques[c];
    bool added = false;
    for (std::size_t i = 0; i < members.size() && !added; ++i) {
      for (std::size_t j = i + 1; j < members.size() && !added; ++j) {
        const NodeId u1 = members[i], u2 = members[j];
        if (g.has_edge(u1, u2)) continue;
        const auto mids = common_in(g, members, u1, u2, {u1, u2}, 2);
        if (mids.size() < 2) continue;
        acc.add(Loophole{{u1, mids[0], u2, mids[1]}});
        added = true;
      }
    }
    // If no witness closes, the AC is left to the runtime checks; with a
    // valid ACD (Lemma 2) the witness always exists (Lemma 9.1's proof).
  }

  // (c) outsiders with two neighbors in a foreign AC:
  // witness 4-cycle w-u1-c1-u2 with c1 in the AC non-adjacent to w.
  std::vector<std::pair<int, NodeId>> by_ac;
  for (NodeId w = 0; w < n; ++w) {
    // Group neighbors by foreign AC.
    by_ac.clear();
    for (const NodeId u : g.neighbors(w)) {
      const int c = acd.clique_of[u];
      if (c == -1 || c == acd.clique_of[w]) continue;
      by_ac.emplace_back(c, u);
    }
    std::sort(by_ac.begin(), by_ac.end());
    for (std::size_t i = 0; i + 1 < by_ac.size(); ++i) {
      if (by_ac[i].first != by_ac[i + 1].first) continue;
      const NodeId u1 = by_ac[i].second, u2 = by_ac[i + 1].second;
      const auto& members = acd.cliques[static_cast<std::size_t>(
          by_ac[i].first)];
      bool added = false;
      for (const NodeId c1 : members) {
        if (c1 == u1 || c1 == u2 || g.has_edge(c1, w)) continue;
        if (g.has_edge(c1, u1) && g.has_edge(c1, u2)) {
          acc.add(Loophole{{w, u1, c1, u2}});
          added = true;
          break;
        }
      }
      if (added) break;  // one witness per w suffices
    }
  }

  // Cross-edge bookkeeping for (d), (e), (f): the AC-pair index holds one
  // entry per linked AC pair in key order, with the pair's first two cross
  // edges by edge id as witnesses; sorting the cross edges once builds it.
  // The largest cross degree decides whether (f) has anything to search.
  std::vector<std::pair<std::uint64_t, EdgeId>> cross;  // (pair key, edge)
  int max_cross_degree = 0;
  for (NodeId u = 0; u < n; ++u) {
    const int cu = acd.clique_of[u];
    if (cu == -1) continue;
    const auto nbrs = g.neighbors(u);
    const auto inc = g.incident_edges(u);
    int cross_degree = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const int cv = acd.clique_of[nbrs[i]];
      if (cv == -1 || cv == cu) continue;
      ++cross_degree;
      if (nbrs[i] > u) cross.emplace_back(pair_key(cu, cv), inc[i]);
    }
    max_cross_degree = std::max(max_cross_degree, cross_degree);
  }
  std::sort(cross.begin(), cross.end());
  std::vector<AcPair> pairs;
  for (const auto& [key, e] : cross) {
    if (pairs.empty() || pair_key(pairs.back().lo, pairs.back().hi) != key) {
      pairs.push_back({static_cast<int>(key >> 32),
                       static_cast<int>(key & 0xffffffffu), {e, kNoEdge}});
    } else if (pairs.back().edges[1] == kNoEdge) {
      pairs.back().edges[1] = e;
    }
  }

  // (d) doubly-linked AC pairs: 4-cycle across the two cross edges.
  for (const AcPair& p : pairs) {
    if (p.edges[1] == kNoEdge) continue;
    auto [a1, b1] = g.endpoints(p.edges[0]);
    auto [a2, b2] = g.endpoints(p.edges[1]);
    // Normalize sides: a* in the lower AC.
    if (acd.clique_of[a1] != p.lo) std::swap(a1, b1);
    if (acd.clique_of[a2] != p.lo) std::swap(a2, b2);
    if (a1 == a2 || b1 == b2) continue;            // case (c) territory
    if (!g.has_edge(a1, a2) || !g.has_edge(b1, b2)) continue;
    if (g.has_edge(a1, b2) || g.has_edge(a2, b1)) continue;  // (c) catches
    acc.add(Loophole{{a1, b1, b2, a2}});
  }

  // (e) AC triangles: assemble an even cycle from the three witness cross
  // edges if the connector parity works out (always does when every vertex
  // has a single cross edge).
  {
    // Per-AC neighbor lists in CSR form, each entry (neighbor AC, pair
    // index). Filling in key order leaves every list ascending: the pairs
    // (y, c) with y < c precede the pairs (c, x).
    const std::size_t num_ac = acd.cliques.size();
    std::vector<std::size_t> off(num_ac + 1, 0);
    for (const AcPair& p : pairs) {
      ++off[static_cast<std::size_t>(p.lo) + 1];
      ++off[static_cast<std::size_t>(p.hi) + 1];
    }
    for (std::size_t c = 0; c < num_ac; ++c) off[c + 1] += off[c];
    std::vector<std::pair<int, std::size_t>> ac_nbrs(off[num_ac]);
    {
      std::vector<std::size_t> fill(off.begin(), off.end() - 1);
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        ac_nbrs[fill[static_cast<std::size_t>(pairs[k].lo)]++] = {
            pairs[k].hi, k};
        ac_nbrs[fill[static_cast<std::size_t>(pairs[k].hi)]++] = {
            pairs[k].lo, k};
      }
    }
    const auto nbrs_of = [&](int c) {
      return std::span<const std::pair<int, std::size_t>>(
          ac_nbrs.data() + off[static_cast<std::size_t>(c)],
          ac_nbrs.data() + off[static_cast<std::size_t>(c) + 1]);
    };
    // Pair index of {x, y}, x < y, by binary search in x's list; -1 if the
    // two ACs share no cross edge.
    const auto find_pair = [&](int x, int y) -> std::ptrdiff_t {
      const auto nb = nbrs_of(x);
      const auto it = std::lower_bound(
          nb.begin(), nb.end(), y,
          [](const std::pair<int, std::size_t>& a, int b) {
            return a.first < b;
          });
      if (it == nb.end() || it->first != y) return -1;
      return static_cast<std::ptrdiff_t>(it->second);
    };
    for (std::size_t c1 = 0; c1 < num_ac; ++c1) {
      const auto nb = nbrs_of(static_cast<int>(c1));
      // Canonical c1 < c2 < c3: skip the neighbors below c1.
      const auto lower = std::upper_bound(
          nb.begin(), nb.end(), static_cast<int>(c1),
          [](int a, const std::pair<int, std::size_t>& b) {
            return a < b.first;
          });
      for (auto i = lower; i != nb.end(); ++i) {
        for (auto j = i + 1; j != nb.end(); ++j) {
          const int c2 = i->first, c3 = j->first;
          const std::ptrdiff_t k23 = find_pair(c2, c3);
          if (k23 < 0) continue;
          // Try the stored witness combinations for an even assembly.
          const auto& e12 = pairs[i->second].edges;
          const auto& e23 = pairs[static_cast<std::size_t>(k23)].edges;
          const auto& e31 = pairs[j->second].edges;
          const auto try_assemble = [&]() {
            for (const EdgeId f12 : e12) {
              if (f12 == kNoEdge) break;
              for (const EdgeId f23 : e23) {
                if (f23 == kNoEdge) break;
                for (const EdgeId f31 : e31) {
                  if (f31 == kNoEdge) break;
                  auto [a, b] = g.endpoints(f12);  // a in C1, b in C2
                  if (acd.clique_of[a] != static_cast<int>(c1))
                    std::swap(a, b);
                  auto [cc, d] = g.endpoints(f23);  // cc in C2, d in C3
                  if (acd.clique_of[cc] != c2) std::swap(cc, d);
                  auto [x, y] = g.endpoints(f31);  // x in C3, y in C1
                  if (acd.clique_of[x] != c3) std::swap(x, y);
                  std::vector<NodeId> cyc{a, b};
                  if (cc != b) cyc.push_back(cc);
                  cyc.push_back(d);
                  if (x != d) cyc.push_back(x);
                  if (y != a) cyc.push_back(y);
                  if (cyc.size() % 2 != 0) continue;
                  Loophole cand{cyc};
                  if (is_valid_loophole(g, cand)) {
                    acc.add(std::move(cand));
                    return;
                  }
                }
              }
            }
          };
          try_assemble();
        }
      }
    }
  }

  // (f) short cycles of the cross-edge subgraph (only possible when
  // vertices carry two or more cross edges, so the subgraph is built only
  // then).
  if (max_cross_degree >= 2) {
    std::vector<std::pair<NodeId, NodeId>> cross_edges;
    cross_edges.reserve(cross.size());
    for (const auto& [key, e] : cross) cross_edges.push_back(g.endpoints(e));
    const Graph cross_graph(n, std::move(cross_edges));
    std::vector<NodeId> path;
    for (NodeId v = 0; v < n; ++v) {
      if (res.vote_of[v] != -1) continue;
      path.assign(1, v);
      bool found = false;
      auto dfs = [&](auto&& self, NodeId x) -> void {
        if (found) return;
        for (const NodeId y : cross_graph.neighbors(x)) {
          if (found) return;
          if (y == v && path.size() >= 4 && path.size() % 2 == 0) {
            Loophole cand{path};
            if (is_valid_loophole(g, cand)) {
              acc.add(cand);
              found = true;
              return;
            }
          }
          if (y == v || static_cast<int>(path.size()) >= 6) continue;
          if (std::find(path.begin(), path.end(), y) != path.end())
            continue;
          path.push_back(y);
          self(self, y);
          path.pop_back();
        }
      };
      dfs(dfs, v);
    }
  }

  // Every case inspects a bounded-radius neighborhood: O(1) rounds.
  LocalContext(ledger).charge("loopholes", 6);
  return res;
}

}  // namespace deltacolor
