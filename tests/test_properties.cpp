// Property-based parameterized suites: the paper's lemma invariants and
// the library's validity guarantees swept across instance families, sizes,
// parameters, seeds, and adversarial identifier assignments.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/brooks.hpp"
#include "common/rng.hpp"
#include "bench_support/workloads.hpp"
#include "core/delta_coloring.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "primitives/degree_splitting.hpp"
#include "primitives/heg.hpp"
#include "randomized/randomized_coloring.hpp"

namespace deltacolor {
namespace {

std::vector<std::uint64_t> reversed_ids(NodeId n) {
  std::vector<std::uint64_t> ids(n);
  for (NodeId v = 0; v < n; ++v) ids[v] = n - 1 - v;
  return ids;
}

// ---------------------------------------------------------------- pipeline

using PipelineParam = std::tuple<int, double, std::uint64_t>;  // delta, easy, seed

class PipelineSweep : public ::testing::TestWithParam<PipelineParam> {};

TEST_P(PipelineSweep, DeterministicValidAndLemmasHold) {
  const auto [delta, easy, seed] = GetParam();
  CliqueInstanceOptions opt;
  opt.num_cliques = 20;
  opt.delta = delta;
  opt.clique_size = delta;
  opt.easy_fraction = easy;
  opt.seed = seed;
  const CliqueInstance inst = clique_blowup_instance(opt);
  const auto res = delta_color_dense(inst.graph, scaled_options(delta));
  ASSERT_TRUE(res.valid) << res.summary();
  const auto& st = res.hard_stats;
  // Lemma 12: every hard clique is Type I (C_HEG) or Type II.
  EXPECT_EQ(st.type1 + st.type2, st.num_hard);
  // Lemma 13 outcome: every C_HEG clique ends with two outgoing edges.
  if (st.num_heg_cliques > 0) {
    EXPECT_EQ(st.min_outgoing_f3, 2);
  }
  // Lemma 15 iii): structurally, slack pair vertices per clique are
  // bounded by the clique's incoming F3 edges plus its own pair member;
  // the paper's numeric bound additionally needs Lemma 13's epsilon-tight
  // incoming bound, so it is asserted only when that holds.
  EXPECT_LE(st.max_slack_pairs_per_clique, st.max_incoming_f3 + 1);
  if (st.lemma13_ok) {
    const double pair_bound =
        0.5 * (delta - 2 * scaled_options(delta).acd.epsilon * delta - 1) +
        1;
    EXPECT_LE(st.max_slack_pairs_per_clique, pair_bound + 1e-9);
  }
  // Lemma 16.
  EXPECT_TRUE(st.lemma16_ok) << st.max_gv_degree;
  // Exactly Delta colors available, all of them typically used; at the
  // very least the palette is respected (checked by res.valid).
  EXPECT_LE(check_coloring(inst.graph, res.color).max_color, delta - 1);
}

INSTANTIATE_TEST_SUITE_P(
    DeltaEasySeed, PipelineSweep,
    ::testing::Combine(::testing::Values(10, 12, 16, 24, 32),
                       ::testing::Values(0.0, 0.15, 0.5),
                       ::testing::Values(1ull, 2ull, 3ull)));

TEST(PipelineAdversarial, ReversedIdentifiers) {
  for (const int delta : {12, 16}) {
    CliqueInstanceOptions opt;
    opt.num_cliques = 16;
    opt.delta = delta;
    opt.clique_size = delta;
    opt.easy_fraction = 0.2;
    opt.seed = 5;
    opt.shuffle_ids = false;
    CliqueInstance inst = clique_blowup_instance(opt);
    inst.graph.set_ids(reversed_ids(inst.graph.num_nodes()));
    const auto res = delta_color_dense(inst.graph, scaled_options(delta));
    EXPECT_TRUE(res.valid) << "delta " << delta;
  }
}

// --------------------------------------------------------------- randomized

using RandParam = std::tuple<int, std::uint64_t, std::uint64_t>;

class RandomizedSweep : public ::testing::TestWithParam<RandParam> {};

TEST_P(RandomizedSweep, ValidColoringAndConsistentStats) {
  const auto [delta, graph_seed, algo_seed] = GetParam();
  CliqueInstanceOptions opt;
  opt.num_cliques = 24;
  opt.delta = delta;
  opt.clique_size = delta;
  opt.seed = graph_seed;
  const CliqueInstance inst = clique_blowup_instance(opt);
  const auto res = randomized_delta_color(
      inst.graph, scaled_randomized_options(delta, algo_seed));
  ASSERT_TRUE(res.valid);
  EXPECT_EQ(res.stats.tnodes_placed + res.stats.failed_cliques,
            res.stats.num_hard);
  EXPECT_GE(res.stats.tnodes_placed, 1);
  if (res.stats.components == 0) {
    EXPECT_EQ(res.stats.max_component_vertices, 0);
  }
  EXPECT_LE(res.stats.max_component_rounds, res.ledger.total());
}

INSTANTIATE_TEST_SUITE_P(
    DeltaSeeds, RandomizedSweep,
    ::testing::Combine(::testing::Values(12, 16, 24),
                       ::testing::Values(1ull, 2ull),
                       ::testing::Values(11ull, 12ull, 13ull)));

// ---------------------------------------------------------------------- HEG

using HegParam = std::tuple<int, int, int, std::uint64_t>;  // n, delta, rank

class HegSweep : public ::testing::TestWithParam<HegParam> {};

TEST_P(HegSweep, DistributedMatchesCentralized) {
  const auto [n, delta, rank, seed] = GetParam();
  const Hypergraph h = bench::random_hypergraph(n, delta, rank, seed);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const HegResult dist = solve_heg(h, ctx);
  const HegResult cent = solve_heg_centralized(h);
  EXPECT_EQ(dist.complete, cent.complete);
  EXPECT_TRUE(is_valid_heg(h, dist, dist.complete));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HegSweep,
    ::testing::Combine(::testing::Values(50, 200), ::testing::Values(4, 8),
                       ::testing::Values(3, 6),
                       ::testing::Values(1ull, 2ull, 3ull)));

// --------------------------------------------------------- degree splitting

class SplitFamilies : public ::testing::TestWithParam<int> {};

TEST_P(SplitFamilies, PartitionAndDiscrepancy) {
  const int which = GetParam();
  Graph g = [&]() {
    switch (which) {
      case 0:
        return torus_grid(12, 12);
      case 1:
        return random_regular(256, 12, 3);
      case 2:
        return random_graph(200, 0.08, 4);
      case 3:
        return bench::hard_instance(16, 12, 5).graph;
      default:
        return random_tree(300, 6);
    }
  }();
  RoundLedger ledger;
  LocalContext ctx(ledger, {}, 9);
  const int segment = 32, levels = 2;
  const auto split = degree_split(g, levels, segment, ctx);
  // Partition property.
  std::vector<int> total(g.num_nodes(), 0);
  for (int p = 0; p < split.num_parts; ++p) {
    const auto deg = part_degrees(g, split, p);
    for (NodeId v = 0; v < g.num_nodes(); ++v) total[v] += deg[v];
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(total[v], g.degree(v));
  // Discrepancy bound (empirical form; see DESIGN.md).
  const double eps = 2.0 * levels / segment;
  for (int p = 0; p < split.num_parts; ++p) {
    const auto deg = part_degrees(g, split, p);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const double expect =
          static_cast<double>(g.degree(v)) / split.num_parts;
      EXPECT_LE(std::abs(deg[v] - expect),
                eps * g.degree(v) + 3.0 * levels + 1)
          << "family " << which << " node " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, SplitFamilies, ::testing::Range(0, 5));

TEST(SplitMultigraph, ParallelEdgesSupported) {
  // The abstract splitter must handle parallel virtual edges (G_Q case).
  std::vector<std::pair<int, int>> edges;
  for (int k = 0; k < 16; ++k) edges.emplace_back(0, 1);
  for (int k = 0; k < 16; ++k) edges.emplace_back(1, 2);
  RoundLedger ledger;
  LocalContext ctx(ledger, {}, 3);
  const auto split = degree_split_edges(3, edges, 1, 8, ctx);
  int part0_at_0 = 0;
  for (int k = 0; k < 16; ++k)
    if (split.part[static_cast<std::size_t>(k)] == 0) ++part0_at_0;
  EXPECT_GE(part0_at_0, 4);  // near-half of node 0's sixteen edges
  EXPECT_LE(part0_at_0, 12);
}

// ------------------------------------------------------------------- Brooks

class BrooksSweep : public ::testing::TestWithParam<int> {};

TEST_P(BrooksSweep, RandomGraphsColoredOrException) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed);
  // A random mix: G(n,p), regular, tree, plus isolated vertices.
  const NodeId n = 40 + static_cast<NodeId>(rng.below(60));
  Graph g = [&]() {
    switch (seed % 3) {
      case 0:
        return random_graph(n, 0.05 + 0.1 * rng.uniform(), seed);
      case 1:
        return random_regular(n + (n % 2), 3 + static_cast<int>(rng.below(4)),
                              seed);
      default:
        return random_tree(n, seed);
    }
  }();
  const auto res = brooks_coloring(g);
  if (res.success) {
    EXPECT_TRUE(is_delta_coloring(g, res.color)) << "seed " << seed;
  } else {
    EXPECT_TRUE(res.brooks_exception);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BrooksSweep,
                         ::testing::Range(1, 31));

}  // namespace
}  // namespace deltacolor
