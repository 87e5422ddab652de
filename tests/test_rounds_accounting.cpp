// Tests for the round-accounting contracts: the LocalContext phase stack,
// the edge coloring that backs the matching subroutines, and the
// n-(in)dependence shape of every pipeline phase that Lemma 18's
// decomposition predicts.
#include <gtest/gtest.h>

#include "bench_support/workloads.hpp"
#include "core/delta_coloring.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "local/context.hpp"
#include "primitives/linial.hpp"
#include "primitives/mis.hpp"
#include "randomized/randomized_coloring.hpp"

namespace deltacolor {
namespace {

TEST(LocalContext, PhaseStackAndLabeledCharge) {
  const Graph g = cycle_graph(12);
  // A bare call books every nested round (schedule, Linial, KW) under the
  // entry point's default label.
  RoundLedger bare;
  LocalContext bare_ctx(bare);
  mis_deterministic(g, bare_ctx);
  ASSERT_EQ(bare.phases().size(), 1u);
  EXPECT_EQ(bare.phases()[0].first, "mis");
  EXPECT_GT(bare.total(), 0);
  // Under the caller's ScopedPhase the same call books only that label.
  RoundLedger scoped;
  LocalContext scoped_ctx(scoped);
  {
    ScopedPhase phase(scoped_ctx, "caller");
    mis_deterministic(g, scoped_ctx);
  }
  ASSERT_EQ(scoped.phases().size(), 1u);
  EXPECT_EQ(scoped.phases()[0].first, "caller");
  EXPECT_EQ(scoped.total(), bare.total());
  EXPECT_FALSE(scoped_ctx.has_phase());
  // charge(label, ...) needs no open phase and books rounds * dilation to
  // that label.
  scoped_ctx.charge("named", 3, 2);
  EXPECT_EQ(scoped.phase_total("named"), 6);
}

TEST(EdgeColoring, ProperOnFamilies) {
  std::vector<Graph> gs;
  gs.push_back(path_graph(20));
  gs.push_back(complete_graph(7));
  gs.push_back(torus_grid(5, 5));
  gs.push_back(random_regular(64, 5, 3));
  gs.push_back(bench::hard_instance(12, 10, 4).graph);
  for (const Graph& g : gs) {
    RoundLedger ledger;
    LocalContext ctx(ledger);
    const LinialResult ec = linial_edge_coloring(g, ctx);
    ASSERT_EQ(ec.color.size(), g.num_edges());
    // Properness on the line graph: incident edges differ in color.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto inc = g.incident_edges(v);
      for (std::size_t i = 0; i < inc.size(); ++i)
        for (std::size_t j = i + 1; j < inc.size(); ++j)
          EXPECT_NE(ec.color[inc[i]], ec.color[inc[j]])
              << "edges " << inc[i] << "," << inc[j] << " at " << v;
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_GE(ec.color[e], 0);
      EXPECT_LT(ec.color[e], ec.num_colors);
    }
  }
}

TEST(EdgeColoring, EmptyGraph) {
  Graph g(4, {});
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const LinialResult ec = linial_edge_coloring(g, ctx);
  EXPECT_TRUE(ec.color.empty());
}

TEST(RoundAccounting, OnlyHegPhaseDependsOnN) {
  // Lemma 18: T_MM, T_SP, T_deg+1 are n-independent at fixed Delta (up to
  // the log* term, invisible at these sizes); T_HEG carries the log n.
  const auto small = bench::hard_instance(32, 16, 7);
  const auto large = bench::hard_instance(512, 16, 7);
  const auto rs = delta_color_dense(small.graph, scaled_options(16));
  const auto rl = delta_color_dense(large.graph, scaled_options(16));
  ASSERT_TRUE(rs.valid && rl.valid);
  for (const char* phase :
       {"acd", "loopholes", "phase2-split", "phase3-triads"}) {
    EXPECT_EQ(rs.ledger.phase_total(phase), rl.ledger.phase_total(phase))
        << phase;
  }
  // Matching and list-coloring phases may shift by a few rounds (log*
  // term, schedule size); bound the drift.
  for (const char* phase :
       {"phase1-matching", "phase4a-pairs", "phase4b-rest"}) {
    const auto a = rs.ledger.phase_total(phase);
    const auto b = rl.ledger.phase_total(phase);
    EXPECT_LE(std::abs(a - b), a / 2 + 32) << phase;
  }
}

TEST(RoundAccounting, LedgerTotalsMatchPhaseSums) {
  const auto inst = bench::mixed_instance(24, 16, 0.2, 9);
  const auto res = delta_color_dense(inst.graph, scaled_options(16));
  ASSERT_TRUE(res.valid);
  std::int64_t sum = 0;
  for (const auto& [phase, rounds] : res.ledger.phases()) sum += rounds;
  EXPECT_EQ(sum, res.ledger.total());
  EXPECT_GT(res.ledger.phase_total("acd"), 0);
}

TEST(RoundAccounting, DeterministicChargesWallClockToEveryPhase) {
  // det times acd, loopholes, each Algorithm 2 phase and the easy layers
  // under their round labels, so every phase that charges rounds also
  // charges milliseconds. The per-phase rounds are pinned: timing must not
  // move them.
  struct Case {
    CliqueInstance inst;
    std::vector<std::pair<std::string, std::int64_t>> rounds;
  };
  const Case cases[] = {
      {bench::hard_instance(32, 16, 7),
       {{"acd", 45},
        {"loopholes", 6},
        {"phase1-matching", 16},
        {"phase1-heg", 6},
        {"phase2-split", 315},
        {"phase3-triads", 2},
        {"phase4a-pairs", 192},
        {"phase4b-rest", 109}}},
      {bench::mixed_instance(24, 16, 0.2, 9),
       {{"acd", 45},
        {"loopholes", 6},
        {"phase1-matching", 16},
        {"phase3-triads", 2},
        {"phase4a-pairs", 0},
        {"phase4b-rest", 100},
        {"easy-ruling", 35},
        {"easy-bfs", 2},
        {"easy-layers", 105},
        {"easy-loopholes", 3}}},
  };
  for (const Case& c : cases) {
    const auto res = delta_color_dense(c.inst.graph, scaled_options(16));
    ASSERT_TRUE(res.valid);
    EXPECT_EQ(res.ledger.phases(), c.rounds);
    for (const auto& [phase, rounds] : res.ledger.phases()) {
      if (rounds > 0) {
        EXPECT_GT(res.ledger.phase_time(phase), 0.0) << phase;
      }
    }
  }
}

TEST(RoundAccounting, RandomizedAdversarialIds) {
  CliqueInstance inst = bench::hard_instance(24, 16, 5);
  std::vector<std::uint64_t> ids(inst.graph.num_nodes());
  for (NodeId v = 0; v < inst.graph.num_nodes(); ++v)
    ids[v] = inst.graph.num_nodes() - 1 - v;
  inst.graph.set_ids(ids);
  const auto res =
      randomized_delta_color(inst.graph, scaled_randomized_options(16, 3));
  EXPECT_TRUE(res.valid);
}

TEST(RoundAccounting, DeterministicIsSeedInvariantGivenIds) {
  // The deterministic pipeline must produce identical colorings across
  // runs (its only "seed" feeds the splitter's simulated chopping).
  const auto inst = bench::hard_instance(16, 12, 6);
  const auto r1 = delta_color_dense(inst.graph, scaled_options(12));
  const auto r2 = delta_color_dense(inst.graph, scaled_options(12));
  EXPECT_EQ(r1.color, r2.color);
  EXPECT_EQ(r1.ledger.total(), r2.ledger.total());
}

}  // namespace
}  // namespace deltacolor
