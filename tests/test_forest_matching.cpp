// Tests for Cole-Vishkin forest 3-coloring and the Panconesi-Rizzi
// O(Delta + log* n) maximal matching built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/workloads.hpp"
#include "common/rng.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "local/context.hpp"
#include "local/sync_runner.hpp"
#include "primitives/forest_coloring.hpp"
#include "primitives/maximal_matching.hpp"

namespace deltacolor {
namespace {

// Parent array of a path rooted at its last node.
std::vector<NodeId> path_parents(NodeId n) {
  std::vector<NodeId> parent(n, kNoNode);
  for (NodeId v = 0; v + 1 < n; ++v) parent[v] = v + 1;
  return parent;
}

TEST(ForestColoring, PathProper3Coloring) {
  for (const NodeId n : {2u, 3u, 17u, 1000u}) {
    const auto parent = path_parents(n);
    const auto ids = shuffled_ids(n, n);
    RoundLedger ledger;
    LocalContext ctx(ledger);
    const auto res = forest_3_coloring(parent, ids, ctx);
    EXPECT_TRUE(is_proper_forest_coloring(parent, res.color, 3))
        << "n=" << n;
  }
}

TEST(ForestColoring, RandomForest) {
  Rng rng(5);
  const NodeId n = 4000;
  std::vector<NodeId> parent(n, kNoNode);
  for (NodeId v = 1; v < n; ++v)
    if (rng.chance(0.9)) parent[v] = static_cast<NodeId>(rng.below(v));
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const auto res = forest_3_coloring(parent, identity_ids(n), ctx);
  EXPECT_TRUE(is_proper_forest_coloring(parent, res.color, 3));
}

TEST(ForestColoring, StarAndSingletons) {
  // Star: every leaf's parent is the center; isolated roots elsewhere.
  const NodeId n = 12;
  std::vector<NodeId> parent(n, kNoNode);
  for (NodeId v = 1; v < 8; ++v) parent[v] = 0;
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const auto res = forest_3_coloring(parent, shuffled_ids(n, 3), ctx);
  EXPECT_TRUE(is_proper_forest_coloring(parent, res.color, 3));
}

TEST(ForestColoring, RoundsLogStarShaped) {
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const auto r1 =
      forest_3_coloring(path_parents(512), shuffled_ids(512, 1), ctx);
  const auto r2 =
      forest_3_coloring(path_parents(65536), shuffled_ids(65536, 2), ctx);
  EXPECT_LE(r2.rounds, r1.rounds + 3);  // log* growth is negligible
}

TEST(ForestColoring, DuplicateIdAlongEdgeThrows) {
  std::vector<NodeId> parent = {1, kNoNode};
  std::vector<std::uint64_t> ids = {7, 7};
  RoundLedger ledger;
  LocalContext ctx(ledger);
  EXPECT_THROW(forest_3_coloring(parent, ids, ctx), std::logic_error);
}

// --- PR matching ----------------------------------------------------------

TEST(PrMatching, MaximalOnFamilies) {
  std::vector<Graph> gs;
  gs.push_back(path_graph(40));
  gs.push_back(cycle_graph(41));
  gs.push_back(complete_graph(9));
  gs.push_back(torus_grid(6, 7));
  gs.push_back(random_tree(120, 5));
  gs.push_back(random_graph(80, 0.1, 6));
  gs.push_back(random_regular(60, 4, 7));
  gs.push_back(bench::hard_instance(16, 12, 3).graph);
  gs.push_back(bench::hard_instance(32, 32, 5).graph);
  for (const Graph& g : gs) {
    RoundLedger ledger;
    LocalContext ctx(ledger);
    const auto m = maximal_matching_pr(g, ctx);
    EXPECT_TRUE(is_maximal_matching(g, m)) << "n=" << g.num_nodes();
  }
}

TEST(PrMatching, AdversarialIds) {
  Graph g = random_regular(128, 6, 9);
  std::vector<std::uint64_t> ids(128);
  for (NodeId v = 0; v < 128; ++v) ids[v] = 127 - v;
  g.set_ids(ids);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const auto m = maximal_matching_pr(g, ctx);
  EXPECT_TRUE(is_maximal_matching(g, m));
}

TEST(PrMatching, EdgelessAndTiny) {
  Graph g0(5, {});
  RoundLedger ledger;
  LocalContext ctx(ledger);
  EXPECT_TRUE(maximal_matching_pr(g0, ctx).empty());
  Graph g1(2, {{0, 1}});
  const auto m = maximal_matching_pr(g1, ctx);
  EXPECT_TRUE(is_maximal_matching(g1, m));
}

// --- PR matching against its three-round-slot form -------------------------

// Transcribed from maximal_matching_pr before each (forest, class) slot
// became two keyed rounds: the same forest decomposition and Cole-Vishkin
// coloring, then three full engine sweeps per slot — propose (free class-c
// nodes point at their free parent), accept (a parent picks its
// smallest-identifier proposer), commit — and the same round charges.
struct ReferencePrState {
  std::uint8_t matched = 0;
  NodeId proposal = kNoNode;
  NodeId accepted = kNoNode;
  EdgeId matched_edge = kNoEdge;
  bool operator==(const ReferencePrState&) const = default;
};

std::vector<bool> reference_matching_pr(const Graph& g, LocalContext& ctx) {
  DefaultPhase scope(ctx, "maximal-matching-pr");
  std::vector<bool> in_matching(g.num_edges(), false);
  if (g.num_edges() == 0) return in_matching;
  const int delta = g.max_degree();
  std::vector<std::vector<NodeId>> parent_in(
      static_cast<std::size_t>(delta),
      std::vector<NodeId>(g.num_nodes(), kNoNode));
  std::vector<std::vector<EdgeId>> parent_edge(
      static_cast<std::size_t>(delta),
      std::vector<EdgeId>(g.num_nodes(), kNoEdge));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    int i = 0;
    const auto nbrs = g.neighbors(v);
    const auto inc = g.incident_edges(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (g.id(nbrs[k]) < g.id(v)) continue;
      parent_in[static_cast<std::size_t>(i)][v] = nbrs[k];
      parent_edge[static_cast<std::size_t>(i)][v] = inc[k];
      ++i;
    }
  }
  std::vector<std::uint64_t> ids(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = g.id(v);
  std::vector<std::vector<Color>> forest_color(
      static_cast<std::size_t>(delta));
  int coloring_rounds = 0;
  for (int f = 0; f < delta; ++f) {
    RoundLedger forest_ledger;
    LocalContext forest_ctx(forest_ledger, ctx.engine(), ctx.seed());
    const ForestColoringResult fc = forest_3_coloring(
        parent_in[static_cast<std::size_t>(f)], ids, forest_ctx);
    forest_color[static_cast<std::size_t>(f)] = fc.color;
    coloring_rounds = std::max(coloring_rounds, fc.rounds);
  }
  ctx.charge(1 + coloring_rounds);

  SyncRunner<ReferencePrState> runner(
      g, std::vector<ReferencePrState>(g.num_nodes()), ctx.engine());
  const auto step = [&parent_in, &parent_edge, &forest_color,
                     &g](const auto& v) -> ReferencePrState {
    ReferencePrState s = v.self();
    const int slot = v.round() / 3;
    const std::size_t f = static_cast<std::size_t>(slot / 3);
    const Color cls = slot % 3;
    switch (v.round() % 3) {
      case 0: {
        s.proposal = kNoNode;
        if (s.matched || forest_color[f][v.node()] != cls) return s;
        const NodeId p = parent_in[f][v.node()];
        if (p != kNoNode && !v.neighbor(p).matched) s.proposal = p;
        return s;
      }
      case 1: {
        s.accepted = kNoNode;
        v.for_each_neighbor([&](NodeId u) {
          if (parent_in[f][u] != v.node()) return;
          if (v.neighbor(u).proposal != v.node()) return;
          if (s.accepted == kNoNode || g.id(u) < g.id(s.accepted))
            s.accepted = u;
        });
        return s;
      }
      default: {
        if (s.accepted != kNoNode) {
          s.matched = 1;
          s.accepted = kNoNode;
          s.proposal = kNoNode;
          return s;
        }
        if (s.proposal != kNoNode) {
          if (v.neighbor(s.proposal).accepted == v.node()) {
            s.matched = 1;
            s.matched_edge = parent_edge[f][v.node()];
          }
          s.proposal = kNoNode;
        }
        return s;
      }
    }
  };
  runner.run_rounds(3 * 3 * delta, step);
  const auto& states = runner.states();
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (states[v].matched_edge != kNoEdge)
      in_matching[states[v].matched_edge] = true;
  ctx.charge(2 * 3 * delta);
  return in_matching;
}

TEST(PrMatching, MatchesThreeRoundReference) {
  // Families with Delta >= 3, so that several forests and all three
  // classes run, each under identity, shuffled and reversed identifiers,
  // at one and four workers: the two-round slots must give the same
  // matching edge for edge and charge the same rounds.
  std::vector<std::pair<std::string, Graph>> families;
  families.emplace_back("torus", torus_grid(9, 11));
  families.emplace_back("complete", complete_graph(9));
  families.emplace_back("tree", random_tree(300, 5));
  families.emplace_back("gnp", random_graph(200, 0.05, 6));
  families.emplace_back("regular", random_regular(256, 6, 7));
  families.emplace_back("blowup", bench::hard_instance(16, 12, 3).graph);
  int matched_total = 0;
  for (auto& [name, g] : families) {
    ASSERT_GE(g.max_degree(), 3) << name;
    const NodeId n = g.num_nodes();
    std::vector<std::uint64_t> reversed(n);
    for (NodeId v = 0; v < n; ++v) reversed[v] = n - 1 - v;
    const std::vector<std::pair<std::string, std::vector<std::uint64_t>>>
        id_sets = {{"identity", identity_ids(n)},
                   {"shuffled", shuffled_ids(n, 11)},
                   {"reversed", reversed}};
    for (const auto& [id_name, ids] : id_sets) {
      g.set_ids(ids);
      for (const int workers : {1, 4}) {
        const std::string label =
            name + "/" + id_name + "/t" + std::to_string(workers);
        RoundLedger want_ledger, got_ledger;
        LocalContext want_ctx(want_ledger, EngineOptions{workers});
        LocalContext got_ctx(got_ledger, EngineOptions{workers});
        const auto want = reference_matching_pr(g, want_ctx);
        const auto got = maximal_matching_pr(g, got_ctx);
        EXPECT_EQ(got, want) << label;
        EXPECT_EQ(got_ledger.total(), want_ledger.total()) << label;
        EXPECT_TRUE(is_maximal_matching(g, got)) << label;
        matched_total +=
            static_cast<int>(std::count(got.begin(), got.end(), true));
      }
    }
  }
  EXPECT_GT(matched_total, 0);
}

}  // namespace
}  // namespace deltacolor
