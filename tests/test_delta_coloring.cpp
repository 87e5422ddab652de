// End-to-end tests for the deterministic Delta-coloring algorithm
// (Theorem 1 / Algorithms 1-3), including the per-phase structural lemma
// outcomes the pipeline records.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "core/delta_coloring.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"

namespace deltacolor {
namespace {

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

struct Case {
  int cliques, delta, s;
  // gtest names each case by the struct's raw bytes; this member fills the
  // four bytes before `easy`, which were padding with no fixed value.
  int reserved = 0;
  double easy;
  std::uint64_t seed;
};

class EndToEnd : public ::testing::TestWithParam<Case> {};

TEST_P(EndToEnd, ProducesValidDeltaColoring) {
  const Case c = GetParam();
  const CliqueInstance inst = blowup(c.cliques, c.delta, c.s, c.easy, c.seed);
  const auto res =
      delta_color_dense(inst.graph, scaled_options(c.delta));
  EXPECT_TRUE(res.dense);
  EXPECT_TRUE(res.valid) << res.summary();
  EXPECT_TRUE(is_delta_coloring(inst.graph, res.color));
  EXPECT_EQ(res.num_cliques, static_cast<int>(inst.cliques.size()));
  EXPECT_GT(res.ledger.total(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    DenseInstances, EndToEnd,
    ::testing::Values(
        Case{16, 16, 16, 0, 0.0, 1},    // all hard, e = 1
        Case{16, 16, 16, 0, 0.0, 2},    // another seed
        Case{24, 12, 12, 0, 0.0, 3},    // smaller cliques
        Case{16, 16, 16, 0, 0.25, 4},   // mixed hard/easy
        Case{16, 16, 16, 0, 0.60, 5},   // mostly easy
        Case{16, 16, 16, 0, 1.0, 6},    // all easy
        Case{32, 16, 16, 0, 0.1, 7},    // larger, few easy
        Case{12, 32, 32, 0, 0.0, 8},    // bigger Delta, all hard
        Case{12, 32, 32, 0, 0.3, 9}));  // bigger Delta, mixed

TEST(EndToEndExtra, HardStatsReflectLemmas) {
  const CliqueInstance inst = blowup(24, 16, 16, 0.0, 11);
  const auto res = delta_color_dense(inst.graph, scaled_options(16));
  ASSERT_TRUE(res.valid);
  const auto& st = res.hard_stats;
  EXPECT_EQ(st.num_hard, static_cast<int>(inst.cliques.size()));
  EXPECT_EQ(st.num_heg_cliques + st.type2, st.num_hard);
  EXPECT_TRUE(st.heg_complete);
  EXPECT_TRUE(st.lemma11_ok) << "delta_H/r_H = " << st.heg_ratio;
  EXPECT_GE(st.min_outgoing_f3, 2);
  EXPECT_TRUE(st.lemma16_ok) << "max G_V degree " << st.max_gv_degree;
  EXPECT_EQ(st.num_triads, st.num_heg_cliques - st.dropped_triads);
  EXPECT_LE(st.max_gv_degree, 16 - 2);
}

TEST(EndToEndExtra, CliqueRingAllEasy) {
  const CliqueInstance inst = clique_ring(10, 8, 2);
  const auto res = delta_color_dense(inst.graph, scaled_options(8));
  EXPECT_TRUE(res.valid) << res.summary();
  EXPECT_EQ(res.num_hard, 0);
  EXPECT_EQ(res.hard_stats.num_triads, 0);
}

TEST(EndToEndExtra, PaperExactParametersAtDelta63) {
  // Delta = 63 is the smallest degree where the paper's epsilon = 1/63
  // admits non-trivial dense graphs; run the full pipeline unscaled.
  //
  // Reproduction finding (recorded in EXPERIMENTS.md): Lemma 11's stated
  // margin delta_H > 1.1 r_H does NOT survive integer rounding at
  // Delta = 63 — sub-cliques of 63/28 vertices propose only
  // floor(63/28) = 2 edges while r_H = 2, giving ratio exactly 1.0. The
  // HEG instance is nevertheless feasible (2-regular bipartite incidence
  // decomposes into cycles) and the pipeline completes.
  const CliqueInstance inst = blowup(8, 63, 63, 0.0, 13);
  DeltaColoringOptions opt;  // paper defaults: epsilon = 1/63, K = 28
  opt.hard.scale_for_delta = false;
  const auto res = delta_color_dense(inst.graph, opt);
  EXPECT_TRUE(res.dense);
  EXPECT_TRUE(res.valid) << res.summary();
  EXPECT_FALSE(res.hard_stats.lemma11_ok);  // the documented rounding gap
  EXPECT_GE(res.hard_stats.heg_ratio, 1.0);
  EXPECT_TRUE(res.hard_stats.heg_complete);
  EXPECT_TRUE(res.hard_stats.lemma13_ok);
  EXPECT_TRUE(res.hard_stats.lemma16_ok);
}

TEST(EndToEndExtra, PaperConstantsClearLemma11AtLargeDelta) {
  // With Delta = 126 the sub-cliques hold >= 4 members and the Lemma 11
  // margin holds strictly: delta_H = 4 > 1.1 * r_H = 2.2.
  const CliqueInstance inst = blowup(4, 126, 126, 0.0, 29);
  DeltaColoringOptions opt;
  opt.hard.scale_for_delta = false;
  const auto res = delta_color_dense(inst.graph, opt);
  EXPECT_TRUE(res.dense);
  EXPECT_TRUE(res.valid) << res.summary();
  EXPECT_TRUE(res.hard_stats.lemma11_ok)
      << "ratio " << res.hard_stats.heg_ratio;
  EXPECT_TRUE(res.hard_stats.lemma13_ok);
  EXPECT_TRUE(res.hard_stats.lemma16_ok);
}

TEST(EndToEndExtra, MultiCrossEdgeInstances) {
  // e_C = 2: cliques one vertex short of Delta, every member carrying two
  // cross edges — the paper's "less dense" regime of Section 1.1. The
  // Lemma 2 size window forces epsilon >= 4(Delta-s)/Delta here, far above
  // 1/63 (the paper's constants assume Delta >= 63*e_C); at this epsilon
  // the stated Lemma 11/13 margins fail, but the HEG solver and the
  // runtime checks carry the pipeline to a valid Delta-coloring.
  CliqueInstanceOptions opt;
  opt.num_cliques = 16;
  opt.delta = 12;
  opt.clique_size = 11;
  opt.seed = 2;
  const CliqueInstance inst = clique_blowup_instance(opt);
  DeltaColoringOptions dopt;
  dopt.acd.epsilon = 4.2 / 12.0;
  const auto res = delta_color_dense(inst.graph, dopt);
  EXPECT_TRUE(res.dense);
  EXPECT_TRUE(res.valid) << res.summary();
  EXPECT_TRUE(res.hard_stats.lemma16_ok);
  EXPECT_FALSE(res.hard_stats.lemma11_ok);  // documented margin gap
  EXPECT_EQ(res.hard_stats.num_triads, res.num_hard);
}

TEST(EndToEndExtra, TripleCrossEdgeInstances) {
  // e_C = 3 (cliques two short of Delta, three cross edges per member):
  // the blow-up generator needs a Sidon supergraph of ~14k cliques here
  // (n ~ 198k), the loophole detector exercises its cross-cycle case, and
  // the pipeline still produces a valid Delta-coloring — with the HEG
  // ratio at 0.5, i.e. deep below Lemma 11's regime, carried entirely by
  // the augmenting-path solver.
  CliqueInstanceOptions opt;
  opt.num_cliques = 16;
  opt.delta = 16;
  opt.clique_size = 14;
  opt.seed = 4;
  const CliqueInstance inst = clique_blowup_instance(opt);
  DeltaColoringOptions dopt;
  dopt.acd.epsilon = 0.55;  // Lemma 2(i) needs eps >= 4(Delta-s)/Delta
  const auto res = delta_color_dense(inst.graph, dopt);
  EXPECT_TRUE(res.dense);
  EXPECT_TRUE(res.valid) << res.summary();
  EXPECT_EQ(res.hard_stats.num_triads, res.num_hard);
}

TEST(EndToEndExtra, SparseGraphRejected) {
  Graph g = random_regular(64, 6, 17);
  EXPECT_THROW(delta_color_dense(g), DomainError);
}

TEST(EndToEndExtra, LowDegreeRejected) {
  Graph g = cycle_graph(10);
  EXPECT_THROW(delta_color_dense(g), DomainError);
}

TEST(EndToEndExtra, AdversarialIdAssignments) {
  // Identifier permutations must not affect validity.
  for (const std::uint64_t idseed : {101ull, 202ull, 303ull}) {
    CliqueInstance inst = blowup(16, 12, 12, 0.2, 19);
    inst.graph.set_ids(shuffled_ids(inst.graph.num_nodes(), idseed));
    const auto res = delta_color_dense(inst.graph, scaled_options(12));
    EXPECT_TRUE(res.valid) << "idseed " << idseed;
  }
}

TEST(EndToEndExtra, RoundsGrowSlowlyWithN) {
  // O(log n)-type growth: quadrupling n must not triple the rounds.
  const CliqueInstance small = blowup(16, 16, 16, 0.0, 23);
  const CliqueInstance large = blowup(64, 16, 16, 0.0, 23);
  const auto rs = delta_color_dense(small.graph, scaled_options(16));
  const auto rl = delta_color_dense(large.graph, scaled_options(16));
  ASSERT_TRUE(rs.valid && rl.valid);
  EXPECT_LT(rl.ledger.total(), 3 * rs.ledger.total());
}

TEST(EndToEndExtra, TraceArtifactsConsistent) {
  const CliqueInstance inst = blowup(16, 12, 12, 0.0, 33);
  PipelineTrace trace;
  DeltaColoringOptions opt = scaled_options(12);
  opt.hard.trace = &trace;
  const auto res = delta_color_dense(inst.graph, opt);
  ASSERT_TRUE(res.valid);
  const Graph& g = inst.graph;

  // F1 is a matching of real cross edges.
  std::vector<int> touched(g.num_nodes(), 0);
  for (const auto& [u, v] : trace.f1) {
    EXPECT_TRUE(g.has_edge(u, v));
    EXPECT_NE(inst.clique_of[u], inst.clique_of[v]);
    EXPECT_LE(++touched[u], 1);
    EXPECT_LE(++touched[v], 1);
  }
  // F2 is an oriented matching of real cross edges.
  std::fill(touched.begin(), touched.end(), 0);
  for (const auto& [tail, head] : trace.f2) {
    EXPECT_TRUE(g.has_edge(tail, head));
    EXPECT_NE(inst.clique_of[tail], inst.clique_of[head]);
    EXPECT_LE(++touched[tail], 1);
    EXPECT_LE(++touched[head], 1);
  }
  // F3 references valid F2 entries, at most two outgoing per clique.
  std::map<int, int> outgoing;
  for (const int k : trace.f3_of_f2) {
    ASSERT_GE(k, 0);
    ASSERT_LT(k, static_cast<int>(trace.f2.size()));
    const auto& [tail, head] = trace.f2[static_cast<std::size_t>(k)];
    (void)head;
    EXPECT_LE(++outgoing[inst.clique_of[tail]], 2);
  }
  // Triads: live ones reference same-colored non-adjacent pairs adjacent
  // to the (initially uncolored) slack vertex.
  for (const auto& t : trace.triads) {
    if (t.dropped) continue;
    EXPECT_TRUE(g.has_edge(t.slack, t.pair_in));
    EXPECT_TRUE(g.has_edge(t.slack, t.pair_out));
    EXPECT_FALSE(g.has_edge(t.pair_in, t.pair_out));
    EXPECT_EQ(res.color[t.pair_in], res.color[t.pair_out]);
    EXPECT_EQ(res.color[t.pair_in], t.pair_color);
    EXPECT_EQ(inst.clique_of[t.slack], t.clique);
  }
  EXPECT_FALSE(trace.summary().empty());
  // DOT export sanity.
  RoundLedger tmp;
  const Acd acd = compute_acd(g, tmp, opt.acd);
  std::ostringstream os;
  trace.write_dot(os, g, acd, &res.color);
  EXPECT_NE(os.str().find("penwidth=3"), std::string::npos);
  EXPECT_NE(os.str().find("doublecircle"), std::string::npos);
}

TEST(EndToEndExtra, EmptyGraph) {
  Graph g(0, {});
  const auto res = delta_color_dense(g);
  EXPECT_TRUE(res.valid);
}

}  // namespace
}  // namespace deltacolor
