// Tests for the baselines: centralized Brooks (ground truth), distributed
// greedy (Delta+1), and the layered loophole baseline.
#include <gtest/gtest.h>

#include "acd/acd.hpp"
#include "baselines/baselines.hpp"
#include "baselines/brooks.hpp"
#include "core/loopholes.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"

namespace deltacolor {
namespace {

TEST(Brooks, LowDegreeVertexGraphs) {
  for (const NodeId n : {5u, 12u, 33u}) {
    Graph g = random_tree(n, n);
    const auto res = brooks_coloring(g);
    ASSERT_TRUE(res.success);
    EXPECT_TRUE(is_delta_coloring(g, res.color));
  }
  Graph p = path_graph(9);
  const auto res = brooks_coloring(p);
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(is_delta_coloring(p, res.color));
}

TEST(Brooks, EvenCycleTwoColors) {
  Graph g = cycle_graph(8);
  const auto res = brooks_coloring(g);
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(is_delta_coloring(g, res.color));
}

TEST(Brooks, OddCycleIsException) {
  Graph g = cycle_graph(9);
  const auto res = brooks_coloring(g);
  EXPECT_FALSE(res.success);
  EXPECT_TRUE(res.brooks_exception);
}

TEST(Brooks, CompleteGraphIsException) {
  Graph g = complete_graph(5);
  const auto res = brooks_coloring(g);
  EXPECT_FALSE(res.success);
  EXPECT_TRUE(res.brooks_exception);
}

TEST(Brooks, CompleteMinusEdgeColorable) {
  // K5 minus one edge: Delta = 4, Brooks applies.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < 5; ++i)
    for (NodeId j = i + 1; j < 5; ++j)
      if (!(i == 0 && j == 1)) edges.emplace_back(i, j);
  Graph g(5, std::move(edges));
  const auto res = brooks_coloring(g);
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(is_delta_coloring(g, res.color));
}

TEST(Brooks, RegularGraphsViaLovaszTriple) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    Graph g = random_regular(24, 3, seed);
    const auto res = brooks_coloring(g);
    ASSERT_TRUE(res.success) << "seed " << seed;
    EXPECT_TRUE(is_delta_coloring(g, res.color)) << "seed " << seed;
  }
  Graph t = torus_grid(5, 6);  // 4-regular, 2-connected
  const auto res = brooks_coloring(t);
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(is_delta_coloring(t, res.color));
}

TEST(Brooks, ArticulationPointRegularGraph) {
  // Two K4-minus-edge gadgets joined at a shared vertex to make it
  // 3-regular with a cut vertex: barbell of two K4s sharing... simplest:
  // two triangles sharing a vertex is 4-regular at the middle? Use two K4s
  // with a middle vertex replacing one vertex of each — construct
  // explicitly: vertices 0..2 + x=3 form K4; vertices 4..6 + x form K4.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < 3; ++i) {
    edges.emplace_back(i, 3);
    for (NodeId j = i + 1; j < 3; ++j) edges.emplace_back(i, j);
  }
  for (NodeId i = 4; i < 7; ++i) {
    edges.emplace_back(i, 3);
    for (NodeId j = i + 1; j < 7; ++j) edges.emplace_back(i, j);
  }
  Graph g(7, std::move(edges));
  EXPECT_EQ(g.max_degree(), 6);  // x has degree 6, others 3
  const auto res = brooks_coloring(g);
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(is_delta_coloring(g, res.color));
}

TEST(Brooks, DenseInstancesAreDeltaColorable) {
  // Ground truth for the distributed pipeline's inputs.
  for (const double easy : {0.0, 0.5}) {
    CliqueInstanceOptions opt;
    opt.num_cliques = 12;
    opt.delta = 12;
    opt.clique_size = 12;
    opt.easy_fraction = easy;
    opt.seed = 7;
    const CliqueInstance inst = clique_blowup_instance(opt);
    const auto res = brooks_coloring(inst.graph);
    ASSERT_TRUE(res.success);
    EXPECT_TRUE(is_delta_coloring(inst.graph, res.color));
  }
}

TEST(Brooks, DisconnectedMix) {
  // A path, an even cycle and an isolated vertex in one graph.
  std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {1, 2}};
  for (NodeId i = 3; i < 9; ++i)
    edges.emplace_back(i, i == 8 ? 3 : i + 1);
  Graph g(10, std::move(edges));
  const auto res = brooks_coloring(g);
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(is_delta_coloring(g, res.color));
}

// --- greedy (Delta+1) ---------------------------------------------------------

TEST(GreedyPlusOne, ColorsEverythingWithOneExtraColor) {
  CliqueInstanceOptions opt;
  opt.num_cliques = 12;
  opt.delta = 12;
  opt.clique_size = 12;
  opt.seed = 9;
  const CliqueInstance inst = clique_blowup_instance(opt);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const auto color = greedy_delta_plus_one(inst.graph, ctx);
  EXPECT_TRUE(is_proper_coloring(inst.graph, color,
                                 inst.graph.max_degree() + 1));
  EXPECT_GT(ledger.total(), 0);
}

TEST(GreedyPlusOne, CompleteGraphNeedsTheExtraColor) {
  Graph g = complete_graph(6);  // Delta = 5, chi = 6
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const auto color = greedy_delta_plus_one(g, ctx);
  EXPECT_TRUE(is_proper_coloring(g, color, 6));
}

// --- layered loophole baseline ---------------------------------------------------

TEST(LayeredBaseline, SucceedsOnEasyInstancesFailsOnHard) {
  RoundLedger ledger;
  LocalContext ctx(ledger);
  // Easy ring: loopholes everywhere, layering succeeds.
  const CliqueInstance ring = clique_ring(12, 8, 5);
  {
    RoundLedger l2;
    const Acd acd = compute_acd(ring.graph, l2, AcdParams{0.4, -1, 20});
    const auto lps = find_loopholes_dense(ring.graph, acd, l2);
    const auto res = layered_loophole_coloring(ring.graph, lps, ctx);
    EXPECT_TRUE(res.success);
    EXPECT_TRUE(is_delta_coloring(ring.graph, res.color));
  }
  // Hard blow-up: no loopholes at all — the baseline stalls.
  {
    CliqueInstanceOptions opt;
    opt.num_cliques = 12;
    opt.delta = 12;
    opt.clique_size = 12;
    opt.seed = 3;
    const CliqueInstance inst = clique_blowup_instance(opt);
    RoundLedger l2;
    AcdParams p;
    p.epsilon = std::max(kAcdEpsilon, 2.5 / 12);
    const Acd acd = compute_acd(inst.graph, l2, p);
    const auto lps = find_loopholes_dense(inst.graph, acd, l2);
    const auto res = layered_loophole_coloring(inst.graph, lps, ctx);
    EXPECT_FALSE(res.success);
    EXPECT_EQ(res.unreachable, inst.graph.num_nodes());
  }
}

TEST(LayeredBaseline, LayerCountTracksDistanceToLoopholes) {
  // On a long clique ring, layers ~ ring length (linear rounds) — the
  // contrast with the O(log n) slack-triad pipeline.
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const CliqueInstance shortring = clique_ring(6, 6, 1);
  const CliqueInstance longring = clique_ring(30, 6, 1);
  RoundLedger tmp;
  const AcdParams p{0.5, -1, 20};
  const auto l1 = find_loopholes_dense(
      shortring.graph, compute_acd(shortring.graph, tmp, p), tmp);
  const auto l2 = find_loopholes_dense(
      longring.graph, compute_acd(longring.graph, tmp, p), tmp);
  const auto r1 = layered_loophole_coloring(shortring.graph, l1, ctx);
  const auto r2 = layered_loophole_coloring(longring.graph, l2, ctx);
  ASSERT_TRUE(r1.success && r2.success);
  EXPECT_LE(r1.layers, r2.layers);
}

}  // namespace
}  // namespace deltacolor
