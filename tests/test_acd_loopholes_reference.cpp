// Differential tests for the ACD friend-edge count and the AC-pair index of
// dense loophole detection.
//
// compute_acd counts |N(u) ∩ N(v)| against a stamp of N(u), and
// find_loopholes_dense keeps its cross-edge witnesses in a flat, sorted
// AC-pair index. The references below are the earlier implementations
// transcribed: a sorted-list merge per edge, and a std::map from AC pair to
// its first two cross edges. Both pairs must agree exactly: the same
// decomposition, and the same loopholes in the same order with the same
// votes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "acd/acd.hpp"
#include "common/rng.hpp"
#include "core/loopholes.hpp"
#include "graph/generators.hpp"
#include "local/ledger.hpp"

namespace deltacolor {
namespace {

// ---- transcribed reference: ACD with merge-based friend marking -----------

int reference_common_neighbors(const Graph& g, NodeId u, NodeId v) {
  const auto a = g.neighbors(u);
  const auto b = g.neighbors(v);
  int count = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

int reference_neighbors_in(const Graph& g, NodeId v,
                           const std::vector<int>& clique_of, int c) {
  int count = 0;
  for (const NodeId u : g.neighbors(v))
    if (clique_of[u] == c) ++count;
  return count;
}

Acd reference_compute_acd(const Graph& g, const AcdParams& params) {
  Acd acd;
  acd.epsilon = params.epsilon;
  const NodeId n = g.num_nodes();
  acd.clique_of.assign(n, -1);
  if (n == 0) return acd;
  const int delta = g.max_degree();
  const double eta = std::max(params.epsilon, 3.5 / std::max(1, delta));
  const double friend_threshold = (1.0 - eta) * delta;
  const double dense_threshold = (1.0 - eta) * delta;

  std::vector<bool> friendly(g.num_edges(), false);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    friendly[e] = reference_common_neighbors(g, u, v) >= friend_threshold;
  }
  std::vector<bool> dense(n, false);
  for (NodeId v = 0; v < n; ++v) {
    int friends = 0;
    for (const EdgeId e : g.incident_edges(v))
      if (friendly[e]) ++friends;
    dense[v] = friends >= dense_threshold;
  }

  std::vector<int> comp(n, -1);
  int num_comp = 0;
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (!dense[s] || comp[s] != -1) continue;
    comp[s] = num_comp;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      const auto nbrs = g.neighbors(x);
      const auto inc = g.incident_edges(x);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const NodeId y = nbrs[i];
        if (!friendly[inc[i]] || !dense[y] || comp[y] != -1) continue;
        comp[y] = num_comp;
        stack.push_back(y);
      }
    }
    ++num_comp;
  }
  acd.clique_of = comp;

  const double eps = params.epsilon;
  const double min_size = (1.0 - eps / 4.0) * delta;
  const double max_size = (1.0 + eps) * delta;
  const double member_threshold = (1.0 - eps) * delta;
  const double absorb_threshold = (1.0 - eps / 2.0) * delta;
  for (int it = 0; it < kAcdRepairIterations; ++it) {
    bool changed = false;
    for (NodeId v = 0; v < n; ++v) {
      const int c = acd.clique_of[v];
      if (c == -1) continue;
      if (reference_neighbors_in(g, v, acd.clique_of, c) < member_threshold) {
        acd.clique_of[v] = -1;
        changed = true;
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (acd.clique_of[v] != -1) continue;
      int best_c = -1, best = 0;
      std::vector<std::pair<int, int>> counts;
      for (const NodeId u : g.neighbors(v)) {
        const int c = acd.clique_of[u];
        if (c == -1) continue;
        bool found = false;
        for (auto& [cc, k] : counts)
          if (cc == c) {
            ++k;
            found = true;
          }
        if (!found) counts.emplace_back(c, 1);
      }
      for (const auto& [cc, k] : counts)
        if (k > best) {
          best = k;
          best_c = cc;
        }
      if (best_c != -1 && best > absorb_threshold) {
        acd.clique_of[v] = best_c;
        changed = true;
      }
    }
    std::vector<int> size(num_comp, 0);
    for (NodeId v = 0; v < n; ++v)
      if (acd.clique_of[v] != -1) ++size[acd.clique_of[v]];
    for (NodeId v = 0; v < n; ++v) {
      const int c = acd.clique_of[v];
      if (c == -1) continue;
      if (size[c] < min_size || size[c] > max_size) {
        acd.clique_of[v] = -1;
        changed = true;
      }
    }
    if (!changed) break;
  }

  std::vector<int> remap(num_comp, -1);
  for (NodeId v = 0; v < n; ++v) {
    const int c = acd.clique_of[v];
    if (c == -1) {
      acd.sparse.push_back(v);
      continue;
    }
    if (remap[c] == -1) {
      remap[c] = static_cast<int>(acd.cliques.size());
      acd.cliques.emplace_back();
    }
    acd.clique_of[v] = remap[c];
    acd.cliques[static_cast<std::size_t>(remap[c])].push_back(v);
  }
  return acd;
}

// ---- transcribed reference: std::map-based dense loophole detector ---------

class ReferenceAccumulator {
 public:
  ReferenceAccumulator(const Graph& g, LoopholeSet& out) : g_(g), out_(out) {
    out_.vote_of.assign(g.num_nodes(), -1);
  }

  void add(Loophole l) {
    ASSERT_TRUE(is_valid_loophole(g_, l));
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

std::vector<NodeId> reference_common_in(const Graph& g,
                                        const std::vector<NodeId>& pool,
                                        NodeId u1, NodeId u2,
                                        const std::vector<NodeId>& exclude,
                                        int want) {
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

LoopholeSet reference_find_loopholes_dense(const Graph& g, const Acd& acd) {
  LoopholeSet res;
  ReferenceAccumulator acc(g, res);
  const int delta = g.max_degree();
  const NodeId n = g.num_nodes();

  for (NodeId v = 0; v < n; ++v)
    if (g.degree(v) < delta) acc.add(Loophole{{v}});

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
  for (std::size_t c = 0; c < acd.cliques.size(); ++c) {
    if (ac_is_clique[c]) continue;
    const auto& members = acd.cliques[c];
    bool added = false;
    for (std::size_t i = 0; i < members.size() && !added; ++i) {
      for (std::size_t j = i + 1; j < members.size() && !added; ++j) {
        const NodeId u1 = members[i], u2 = members[j];
        if (g.has_edge(u1, u2)) continue;
        const auto mids = reference_common_in(g, members, u1, u2, {u1, u2}, 2);
        if (mids.size() < 2) continue;
        acc.add(Loophole{{u1, mids[0], u2, mids[1]}});
        added = true;
      }
    }
  }

  for (NodeId w = 0; w < n; ++w) {
    std::vector<std::pair<int, NodeId>> by_ac;
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
      if (added) break;
    }
  }

  std::map<std::pair<int, int>, std::vector<EdgeId>> pair_edges;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    const int cu = acd.clique_of[u], cv = acd.clique_of[v];
    if (cu == -1 || cv == -1 || cu == cv) continue;
    auto& lst = pair_edges[{std::min(cu, cv), std::max(cu, cv)}];
    if (lst.size() < 2) lst.push_back(e);
  }

  for (const auto& [key, lst] : pair_edges) {
    if (lst.size() < 2) continue;
    auto [a1, b1] = g.endpoints(lst[0]);
    auto [a2, b2] = g.endpoints(lst[1]);
    if (acd.clique_of[a1] != key.first) std::swap(a1, b1);
    if (acd.clique_of[a2] != key.first) std::swap(a2, b2);
    if (a1 == a2 || b1 == b2) continue;
    if (!g.has_edge(a1, a2) || !g.has_edge(b1, b2)) continue;
    if (g.has_edge(a1, b2) || g.has_edge(a2, b1)) continue;
    acc.add(Loophole{{a1, b1, b2, a2}});
  }

  {
    std::vector<std::vector<int>> ac_nbrs(acd.cliques.size());
    for (const auto& [key, lst] : pair_edges) {
      (void)lst;
      ac_nbrs[static_cast<std::size_t>(key.first)].push_back(key.second);
      ac_nbrs[static_cast<std::size_t>(key.second)].push_back(key.first);
    }
    auto linked = [&](int x, int y) {
      return pair_edges.count({std::min(x, y), std::max(x, y)}) > 0;
    };
    for (std::size_t c1 = 0; c1 < acd.cliques.size(); ++c1) {
      const auto& nb = ac_nbrs[c1];
      for (std::size_t i = 0; i < nb.size(); ++i) {
        for (std::size_t j = i + 1; j < nb.size(); ++j) {
          const int c2 = std::min(nb[i], nb[j]), c3 = std::max(nb[i], nb[j]);
          if (static_cast<int>(c1) > c2) continue;
          if (!linked(c2, c3)) continue;
          const auto& e12 =
              pair_edges[{std::min<int>(c1, c2), std::max<int>(c1, c2)}];
          const auto& e23 = pair_edges[{c2, c3}];
          const auto& e31 =
              pair_edges[{std::min<int>(c1, c3), std::max<int>(c1, c3)}];
          bool added = false;
          for (const EdgeId f12 : e12) {
            for (const EdgeId f23 : e23) {
              for (const EdgeId f31 : e31) {
                if (added) break;
                auto [a, b] = g.endpoints(f12);
                if (acd.clique_of[a] != static_cast<int>(c1))
                  std::swap(a, b);
                auto [cc, d] = g.endpoints(f23);
                if (acd.clique_of[cc] != c2) std::swap(cc, d);
                auto [x, y] = g.endpoints(f31);
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
                  added = true;
                }
              }
              if (added) break;
            }
            if (added) break;
          }
        }
      }
    }
  }

  {
    std::vector<std::pair<NodeId, NodeId>> cross;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.endpoints(e);
      const int cu = acd.clique_of[u], cv = acd.clique_of[v];
      if (cu != -1 && cv != -1 && cu != cv) cross.emplace_back(u, v);
    }
    const Graph cross_graph(n, std::move(cross));
    if (cross_graph.max_degree() >= 2) {
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
  }
  return res;
}

// ---- comparison helpers -----------------------------------------------------

void expect_same_acd(const Graph& g, const AcdParams& params,
                     const std::string& tag) {
  RoundLedger ledger;
  const Acd got = compute_acd(g, ledger, params);
  const Acd want = reference_compute_acd(g, params);
  EXPECT_TRUE(got.clique_of == want.clique_of) << tag;
  EXPECT_TRUE(got.cliques == want.cliques) << tag;
  EXPECT_TRUE(got.sparse == want.sparse) << tag;
}

// Requires identical loophole lists (order and vertex order) and votes;
// returns how many were found.
std::size_t expect_same_loopholes(const Graph& g, const Acd& acd,
                                  const std::string& tag) {
  RoundLedger ledger;
  const LoopholeSet got = find_loopholes_dense(g, acd, ledger);
  const LoopholeSet want = reference_find_loopholes_dense(g, acd);
  EXPECT_EQ(got.loopholes.size(), want.loopholes.size()) << tag;
  const std::size_t k = std::min(got.loopholes.size(), want.loopholes.size());
  for (std::size_t i = 0; i < k; ++i)
    EXPECT_TRUE(got.loopholes[i].vertices == want.loopholes[i].vertices)
        << tag << " loophole " << i;
  EXPECT_TRUE(got.vote_of == want.vote_of) << tag;
  return got.loopholes.size();
}

// An Acd holding the given partition (-1 = sparse), compacted in node order
// as compute_acd does.
Acd acd_from_partition(const std::vector<int>& part) {
  Acd acd;
  acd.clique_of.assign(part.size(), -1);
  std::map<int, int> remap;
  for (NodeId v = 0; v < part.size(); ++v) {
    if (part[v] == -1) {
      acd.sparse.push_back(v);
      continue;
    }
    const auto [it, fresh] =
        remap.try_emplace(part[v], static_cast<int>(acd.cliques.size()));
    if (fresh) acd.cliques.emplace_back();
    acd.clique_of[v] = it->second;
    acd.cliques[static_cast<std::size_t>(it->second)].push_back(v);
  }
  return acd;
}

CliqueInstance blowup(int cliques, int delta, int s, double easy,
                      std::uint64_t seed) {
  CliqueInstanceOptions opt;
  opt.num_cliques = cliques;
  opt.delta = delta;
  opt.clique_size = s;
  opt.easy_fraction = easy;
  opt.seed = seed;
  return clique_blowup_instance(opt);
}

std::vector<AcdParams> param_spread(int delta) {
  std::vector<AcdParams> ps(5);
  ps[1].epsilon = std::max(kAcdEpsilon, 2.5 / std::max(1, delta));
  ps[2].epsilon = 0.9;  // wide window: cliques smaller than Delta survive
  ps[3].epsilon = 0.25;
  ps[4].epsilon = 0.4;  // eta = epsilon = 0.4 wherever 3.5 / Delta <= 0.4
  return ps;
}

// ---- differential tests -----------------------------------------------------

TEST(AcdReference, BlowupsMatch) {
  for (const double easy : {0.0, 0.25, 0.5}) {
    for (const std::uint64_t seed : {1, 2}) {
      const CliqueInstance inst = blowup(48, 16, 16, easy, seed);
      for (const AcdParams& p : param_spread(16))
        expect_same_acd(inst.graph, p,
                        "easy=" + std::to_string(easy) +
                            " seed=" + std::to_string(seed) +
                            " eps=" + std::to_string(p.epsilon));
    }
  }
  for (const auto& [delta, s] : {std::pair{6, 5}, std::pair{8, 6}}) {
    const CliqueInstance inst = blowup(64, delta, s, 0.0, 3);
    for (const AcdParams& p : param_spread(delta))
      expect_same_acd(inst.graph, p,
                      "delta=" + std::to_string(delta) +
                          " s=" + std::to_string(s) +
                          " eps=" + std::to_string(p.epsilon));
  }
}

TEST(AcdReference, CliqueRingsAndRandomGraphsMatch) {
  for (const int s : {5, 8, 12}) {
    const CliqueInstance ring = clique_ring(10, s, 4);
    for (const AcdParams& p : param_spread(s))
      expect_same_acd(ring.graph, p, "ring s=" + std::to_string(s));
  }
  for (const std::uint64_t seed : {5, 6, 7}) {
    const Graph dense = random_graph(120, 0.5, seed);
    const Graph sparse = random_regular(300, 6, seed);
    for (const AcdParams& p : param_spread(dense.max_degree()))
      expect_same_acd(dense, p, "gnp seed=" + std::to_string(seed));
    for (const AcdParams& p : param_spread(sparse.max_degree()))
      expect_same_acd(sparse, p, "regular seed=" + std::to_string(seed));
  }
  expect_same_acd(Graph(0, {}), AcdParams{}, "empty");
}

TEST(LoopholesReference, DeltaEqualsCliqueSizeBlowupsMatch) {
  for (const double easy : {0.0, 0.25, 0.5}) {
    for (const std::uint64_t seed : {1, 2}) {
      const CliqueInstance inst = blowup(48, 16, 16, easy, seed);
      RoundLedger ledger;
      AcdParams p;
      p.epsilon = 2.5 / 16;
      const Acd acd = compute_acd(inst.graph, ledger, p);
      const std::size_t found = expect_same_loopholes(
          inst.graph, acd,
          "easy=" + std::to_string(easy) + " seed=" + std::to_string(seed));
      if (easy > 0) {
        EXPECT_GT(found, 0u);
      }
    }
  }
}

TEST(LoopholesReference, SmallerCliquesRunEveryCrossEdgeCase) {
  // Delta = 6, s = 5: two cross edges per vertex, so doubly-linked pairs
  // (d), AC triangles (e) and the cross-edge subgraph search (f) all run.
  for (const auto& [delta, s] : {std::pair{6, 5}, std::pair{8, 6}}) {
    for (const double easy : {0.0, 0.25}) {
      const CliqueInstance inst = blowup(64, delta, s, easy, 5);
      const std::string tag = "delta=" + std::to_string(delta) +
                              " s=" + std::to_string(s) +
                              " easy=" + std::to_string(easy);
      expect_same_loopholes(inst.graph, acd_from_partition(inst.clique_of),
                            tag);
      RoundLedger ledger;
      AcdParams p;
      p.epsilon = 0.9;
      expect_same_loopholes(inst.graph, compute_acd(inst.graph, ledger, p),
                            tag + " computed");
    }
  }
}

TEST(LoopholesReference, CliqueRingsMatch) {
  for (const int s : {4, 6, 9}) {
    const CliqueInstance ring = clique_ring(12, s, 6);
    expect_same_loopholes(ring.graph, acd_from_partition(ring.clique_of),
                          "ring s=" + std::to_string(s));
  }
}

TEST(LoopholesReference, CrossEdgeCyclesReachTheSubgraphSearch) {
  // Every vertex of a cycle its own AC: each carries exactly two cross
  // edges, no AC pair is doubly linked and no three ACs form a triangle, so
  // only the cross-edge subgraph search (f) can find the 4- and 6-cycles.
  for (const NodeId len : {4u, 5u, 6u, 8u}) {
    const Graph g = cycle_graph(len);
    std::vector<int> part(len);
    for (NodeId v = 0; v < len; ++v) part[v] = static_cast<int>(v);
    const std::size_t found = expect_same_loopholes(
        g, acd_from_partition(part), "cycle len=" + std::to_string(len));
    EXPECT_EQ(found, len == 4 || len == 6 ? 1u : 0u) << len;
  }
}

TEST(LoopholesReference, RandomGraphsWithArbitraryPartitionsMatch) {
  for (const std::uint64_t seed : {11, 12, 13, 14}) {
    for (const double p : {0.08, 0.2}) {
      const Graph g = random_graph(90, p, seed);
      for (const int parts : {3, 12}) {
        Rng rng(seed * 31 + static_cast<std::uint64_t>(parts));
        std::vector<int> part(g.num_nodes());
        for (int& c : part)
          c = static_cast<int>(rng.below(static_cast<std::uint64_t>(parts) +
                                         1)) - 1;
        expect_same_loopholes(g, acd_from_partition(part),
                              "gnp seed=" + std::to_string(seed) +
                                  " p=" + std::to_string(p) +
                                  " parts=" + std::to_string(parts));
      }
    }
  }
}

}  // namespace
}  // namespace deltacolor
