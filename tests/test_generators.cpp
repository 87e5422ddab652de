// Tests for graph generators, in particular the dense clique blow-up
// instances that realize the paper's workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"

namespace deltacolor {
namespace {

TEST(Elementary, PathCycleComplete) {
  EXPECT_EQ(path_graph(5).num_edges(), 4u);
  EXPECT_EQ(cycle_graph(5).num_edges(), 5u);
  EXPECT_EQ(complete_graph(5).num_edges(), 10u);
  EXPECT_EQ(complete_bipartite(3, 4).num_edges(), 12u);
  EXPECT_EQ(star_graph(6).max_degree(), 6);
}

TEST(Elementary, TorusIsFourRegular) {
  Graph g = torus_grid(4, 5);
  EXPECT_EQ(g.num_nodes(), 20u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(g.degree(v), 4);
  EXPECT_EQ(g.num_components(), 1u);
}

TEST(Elementary, TorusWithSideTwoFoldsWrapEdges) {
  // A side of 2 wraps onto the edge the grid already has.
  const Graph g = torus_grid(2, 7);
  EXPECT_EQ(g.num_edges(), 21u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(g.degree(v), 3);
  EXPECT_EQ(torus_grid(2, 2).num_edges(), 4u);  // the 4-cycle
}

TEST(Elementary, RandomTreeIsTree) {
  Graph g = random_tree(50, 3);
  EXPECT_EQ(g.num_edges(), 49u);
  EXPECT_EQ(g.num_components(), 1u);
}

TEST(Elementary, RandomRegularIsRegular) {
  for (const int d : {3, 5, 8}) {
    Graph g = random_regular(64, d, 1234 + d);
    for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(g.degree(v), d);
  }
}

// random_regular's pairing with its repair pass as first written: the
// pairs met so far in a pass sit in a vector searched linearly (quadratic
// per pass). Same draws and swaps as the library; returns the normalized,
// sorted edge list and sets *passes to the number of repair passes run.
std::vector<std::pair<NodeId, NodeId>> reference_random_regular(
    NodeId n, int d, std::uint64_t seed, int* passes) {
  Rng rng(seed);
  std::vector<NodeId> points(static_cast<std::size_t>(n) * d);
  for (std::size_t i = 0; i < points.size(); ++i)
    points[i] = static_cast<NodeId>(i / d);
  for (std::size_t i = points.size(); i > 1; --i)
    std::swap(points[i - 1], points[rng.below(i)]);
  const std::size_t num_pairs = points.size() / 2;
  auto normalized = [&]() {
    std::vector<std::pair<NodeId, NodeId>> sorted;
    for (std::size_t k = 0; k < num_pairs; ++k) {
      const NodeId a = points[2 * k], b = points[2 * k + 1];
      sorted.emplace_back(std::min(a, b), std::max(a, b));
    }
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  };
  auto count_multi = [&]() {
    const auto sorted = normalized();
    std::size_t bad = 0;
    for (std::size_t k = 0; k < sorted.size(); ++k)
      if (sorted[k].first == sorted[k].second ||
          (k > 0 && sorted[k] == sorted[k - 1]))
        ++bad;
    return bad;
  };
  *passes = 0;
  for (int attempt = 0; attempt < 500 && count_multi() > 0; ++attempt) {
    ++*passes;
    std::vector<std::pair<NodeId, NodeId>> seen;
    for (std::size_t k = 0; k < num_pairs; ++k) {
      const NodeId a = points[2 * k], b = points[2 * k + 1];
      const bool self = a == b;
      bool dup = false;
      const auto key = std::pair(std::min(a, b), std::max(a, b));
      if (!self) {
        dup = std::find(seen.begin(), seen.end(), key) != seen.end();
        if (!dup) seen.push_back(key);
      }
      if (self || dup) {
        const std::size_t other = rng.below(points.size());
        std::swap(points[2 * k + 1], points[other]);
      }
    }
  }
  return normalized();
}

TEST(Elementary, RandomRegularMatchesLinearScanRepair) {
  struct Case {
    NodeId n;
    int d;
    std::uint64_t seed;
  };
  for (const Case c : {Case{64, 16, 1}, Case{200, 50, 2}, Case{256, 4, 3},
                       Case{300, 60, 7}, Case{500, 12, 11}}) {
    int passes = 0;
    const auto want = reference_random_regular(c.n, c.d, c.seed, &passes);
    ASSERT_GT(passes, 0) << "repair never ran for n=" << c.n << " d=" << c.d;
    const Graph g = random_regular(c.n, c.d, c.seed);
    const auto got = g.edges();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "n=" << c.n << " d=" << c.d << " seed=" << c.seed;
  }
}

TEST(NumberTheory, NextPrime) {
  EXPECT_EQ(next_prime(2), 2);
  EXPECT_EQ(next_prime(14), 17);
  EXPECT_EQ(next_prime(100), 101);
}

TEST(NumberTheory, SidonSetDifferencesDistinct) {
  for (const int k : {3, 10, 30}) {
    const auto a = sidon_set(k);
    ASSERT_EQ(static_cast<int>(a.size()), k);
    std::vector<int> diffs;
    for (int i = 0; i < k; ++i)
      for (int j = 0; j < k; ++j)
        if (i != j) diffs.push_back(a[i] - a[j]);
    std::sort(diffs.begin(), diffs.end());
    EXPECT_EQ(std::adjacent_find(diffs.begin(), diffs.end()), diffs.end());
  }
}

TEST(Girth, KnownValues) {
  EXPECT_EQ(girth_at_most(cycle_graph(5), 10), 5);
  EXPECT_EQ(girth_at_most(complete_graph(4), 10), 3);
  EXPECT_EQ(girth_at_most(path_graph(6), 10), 11);  // acyclic: cap + 1
  EXPECT_EQ(girth_at_most(complete_bipartite(3, 3), 10), 4);
  EXPECT_EQ(girth_at_most(torus_grid(5, 5), 10), 4);
}

class BlowupTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BlowupTest, StructuralGuarantees) {
  const auto [delta, clique_size] = GetParam();
  CliqueInstanceOptions opt;
  opt.num_cliques = 24;
  opt.delta = delta;
  opt.clique_size = clique_size;
  opt.seed = 99;
  const CliqueInstance inst = clique_blowup_instance(opt);
  const Graph& g = inst.graph;

  // Every vertex has degree exactly delta.
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(g.degree(v), delta);

  // Ground-truth clusters are cliques of the requested size.
  for (const auto& clique : inst.cliques) {
    EXPECT_EQ(static_cast<int>(clique.size()), clique_size);
    EXPECT_TRUE(is_clique(g, clique));
  }

  // Lemma 9 part 3 analogue: no vertex has two neighbors inside a foreign
  // clique (this is what makes every clique hard).
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::vector<int> hits(inst.cliques.size(), 0);
    for (const NodeId u : g.neighbors(v)) {
      const int c = inst.clique_of[u];
      if (c != inst.clique_of[v]) {
        ++hits[c];
        EXPECT_LE(hits[c], 1) << "vertex " << v << " has two neighbors in "
                              << "clique " << c;
      }
    }
  }

  // No Delta+1 clique can exist (cliques are maximal cliques of size s).
  // Check via the cross-edge structure: each vertex has exactly
  // delta - clique_size + 1 cross neighbors.
  const int e = delta - clique_size + 1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    int cross = 0;
    for (const NodeId u : g.neighbors(v))
      if (inst.clique_of[u] != inst.clique_of[v]) ++cross;
    EXPECT_EQ(cross, e);
  }
}

INSTANTIATE_TEST_SUITE_P(DeltaAndSize, BlowupTest,
                         ::testing::Values(std::tuple{8, 8},
                                           std::tuple{12, 12},
                                           std::tuple{16, 16},
                                           std::tuple{8, 7},
                                           std::tuple{10, 8}));

TEST(Blowup, NoShortNonCliqueEvenCycles) {
  // The generator's central guarantee: no loophole-sized (<= 6 vertex)
  // non-clique even cycle exists. We verify the two ingredients directly:
  // cross-subgraph girth > 6 and no vertex with two neighbors in a foreign
  // clique (tested above); and additionally brute-force 4-cycles on a small
  // instance: every 4-cycle must be fully inside one clique.
  CliqueInstanceOptions opt;
  opt.num_cliques = 16;
  opt.delta = 8;
  opt.clique_size = 7;  // e = 2: the interesting case
  opt.seed = 5;
  const CliqueInstance inst = clique_blowup_instance(opt);
  const Graph& g = inst.graph;

  // Brute-force all 4-cycles v0-v1-v2-v3.
  for (NodeId v0 = 0; v0 < g.num_nodes(); ++v0) {
    for (const NodeId v1 : g.neighbors(v0)) {
      for (const NodeId v2 : g.neighbors(v1)) {
        if (v2 == v0) continue;
        for (const NodeId v3 : g.neighbors(v2)) {
          if (v3 == v1 || v3 == v0) continue;
          if (!g.has_edge(v3, v0)) continue;
          // 4-cycle found; must lie inside a single clique.
          EXPECT_EQ(inst.clique_of[v0], inst.clique_of[v1]);
          EXPECT_EQ(inst.clique_of[v0], inst.clique_of[v2]);
          EXPECT_EQ(inst.clique_of[v0], inst.clique_of[v3]);
        }
      }
    }
  }
}

TEST(Blowup, EasyFractionRemovesEdges) {
  CliqueInstanceOptions opt;
  opt.num_cliques = 20;
  opt.delta = 10;
  opt.clique_size = 10;
  opt.easy_fraction = 0.5;
  opt.seed = 17;
  const CliqueInstance inst = clique_blowup_instance(opt);
  int easified = 0;
  for (std::size_t c = 0; c < inst.cliques.size(); ++c) {
    int deficient = 0;
    for (const NodeId v : inst.cliques[c])
      if (inst.graph.degree(v) < opt.delta) ++deficient;
    if (inst.easified[c]) {
      ++easified;
      EXPECT_EQ(deficient, 2);  // both endpoints of the removed edge
      EXPECT_FALSE(is_clique(inst.graph, inst.cliques[c]));
    } else {
      EXPECT_EQ(deficient, 0);
      EXPECT_TRUE(is_clique(inst.graph, inst.cliques[c]));
    }
  }
  EXPECT_EQ(easified, static_cast<int>(0.5 * inst.cliques.size()));
}

TEST(Blowup, IdsShuffledByDefault) {
  CliqueInstanceOptions opt;
  opt.num_cliques = 8;
  opt.delta = 8;
  opt.clique_size = 8;
  const CliqueInstance inst = clique_blowup_instance(opt);
  bool any_moved = false;
  for (NodeId v = 0; v < inst.graph.num_nodes(); ++v)
    if (inst.graph.id(v) != v) any_moved = true;
  EXPECT_TRUE(any_moved);
}

// min_blowup_cliques is the floor the generator rounds requests up to:
// asking for fewer cliques yields exactly that many, and it grows with the
// Sidon shift set once clique_size < delta.
TEST(Blowup, MinCliquesIsTheRoundUpFloor) {
  EXPECT_EQ(min_blowup_cliques(16, 16), 32);
  EXPECT_EQ(min_blowup_cliques(16, 12), 28810);
  for (const auto& [delta, size] : {std::pair{8, 8}, std::pair{4, 3}}) {
    const int floor = min_blowup_cliques(delta, size);
    CliqueInstanceOptions opt;
    opt.num_cliques = 1;
    opt.delta = delta;
    opt.clique_size = size;
    EXPECT_EQ(clique_blowup_instance(opt).cliques.size(),
              static_cast<std::size_t>(floor));
    opt.num_cliques = floor + 2;
    EXPECT_EQ(clique_blowup_instance(opt).cliques.size(),
              static_cast<std::size_t>(floor + 2));
  }
}

TEST(CliqueRing, EveryCliqueEasyAndDeltaIsCliqueSize) {
  const CliqueInstance inst = clique_ring(6, 5, 3);
  const Graph& g = inst.graph;
  EXPECT_EQ(g.num_nodes(), 30u);
  EXPECT_EQ(g.max_degree(), 5);
  EXPECT_EQ(inst.delta, 5);
  EXPECT_EQ(g.num_components(), 1u);
  for (const auto& clique : inst.cliques) EXPECT_TRUE(is_clique(g, clique));
  // Each clique has exactly two vertices of full degree Delta.
  for (const auto& clique : inst.cliques) {
    int full = 0;
    for (const NodeId v : clique)
      if (g.degree(v) == 5) ++full;
    EXPECT_EQ(full, 2);
  }
}

TEST(CliqueRing, RejectsDegenerateParameters) {
  EXPECT_THROW(clique_ring(2, 5), std::logic_error);
  EXPECT_THROW(clique_ring(5, 2), std::logic_error);
}

}  // namespace
}  // namespace deltacolor
