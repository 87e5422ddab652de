// Tests for the distributed primitives: Linial coloring, deg+1 list
// coloring, MIS, maximal matching, and ruling sets — validity on a spread
// of graph families plus round-complexity sanity (log* shape).
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "local/context.hpp"
#include "primitives/linial.hpp"
#include "primitives/list_coloring.hpp"
#include "primitives/maximal_matching.hpp"
#include "primitives/mis.hpp"
#include "primitives/ruling_set.hpp"

namespace deltacolor {
namespace {

std::vector<Graph> test_graphs() {
  std::vector<Graph> gs;
  gs.push_back(path_graph(40));
  gs.push_back(cycle_graph(41));
  gs.push_back(complete_graph(9));
  gs.push_back(torus_grid(6, 7));
  gs.push_back(random_tree(120, 5));
  gs.push_back(random_graph(80, 0.1, 6));
  gs.push_back(random_regular(60, 4, 7));
  {
    CliqueInstanceOptions opt;
    opt.num_cliques = 12;
    opt.delta = 8;
    opt.clique_size = 8;
    gs.push_back(clique_blowup_instance(opt).graph);
  }
  return gs;
}

// --- Linial -------------------------------------------------------------------

TEST(Linial, ProperColoringOnFamilies) {
  for (const Graph& g : test_graphs()) {
    RoundLedger ledger;
    LocalContext ctx(ledger);
    const LinialResult res = linial_coloring(g, ctx);
    ASSERT_EQ(res.color.size(), g.num_nodes());
    EXPECT_TRUE(is_proper_coloring(g, res.color, res.num_colors))
        << "n=" << g.num_nodes() << " delta=" << g.max_degree();
    EXPECT_EQ(ledger.total(), res.rounds);
  }
}

TEST(Linial, PaletteIsDeltaSquaredish) {
  Graph g = random_regular(512, 6, 3);
  g.set_ids(shuffled_ids(512, 11));
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const LinialResult res = linial_coloring(g, ctx);
  // Fixed point is q^2 for the smallest valid prime q > Delta + 1.
  EXPECT_LE(res.num_colors, 4 * (6 + 4) * (6 + 4));
}

TEST(Linial, RoundsGrowLikeLogStar) {
  // log*-shaped: rounds should stay tiny even as n grows by 64x.
  for (const NodeId n : {256u, 4096u, 16384u}) {
    Graph g = random_regular(n, 4, n);
    g.set_ids(shuffled_ids(n, n + 1));
    RoundLedger ledger;
    LocalContext ctx(ledger);
    const LinialResult res = linial_coloring(g, ctx);
    EXPECT_TRUE(is_proper_coloring(g, res.color, res.num_colors));
    EXPECT_LE(res.rounds, 8);
  }
}

TEST(Linial, AdversarialIdsStillProper) {
  Graph g = cycle_graph(64);
  std::vector<std::uint64_t> ids(64);
  for (NodeId v = 0; v < 64; ++v) ids[v] = (v % 2 == 0) ? v : (1ull << 40) + v;
  g.set_ids(ids);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const LinialResult res = linial_coloring(g, ctx);
  EXPECT_TRUE(is_proper_coloring(g, res.color, res.num_colors));
}

TEST(Linial, EmptyAndSingleton) {
  RoundLedger ledger;
  LocalContext ctx(ledger);
  Graph g0(0, {});
  EXPECT_EQ(linial_coloring(g0, ctx).num_colors, 1);
  Graph g1(1, {});
  const auto r1 = linial_coloring(g1, ctx);
  EXPECT_TRUE(is_proper_coloring(g1, r1.color, r1.num_colors));
}

// --- deg+1 list coloring --------------------------------------------------------

TEST(DegPlusOne, DeltaPlusOneColoringEverywhere) {
  for (const Graph& g : test_graphs()) {
    RoundLedger ledger;
    LocalContext ctx(ledger);
    std::vector<Color> color(g.num_nodes(), kNoColor);
    NodeMask active(g.num_nodes(), 1);
    const auto lists = uniform_lists(g, g.max_degree() + 1);
    deg_plus_one_list_color(g, active, lists, color, ctx);
    EXPECT_TRUE(is_proper_coloring(g, color, g.max_degree() + 1));
  }
}

TEST(DegPlusOne, RespectsArbitraryLists) {
  Graph g = cycle_graph(10);
  std::vector<std::vector<Color>> lists(10);
  for (NodeId v = 0; v < 10; ++v)
    lists[v] = {static_cast<Color>(100 + v % 3), static_cast<Color>(7),
                static_cast<Color>(200 + v % 4)};
  RoundLedger ledger;
  LocalContext ctx(ledger);
  std::vector<Color> color(10, kNoColor);
  NodeMask active(10, 1);
  deg_plus_one_list_color(g, active, lists, color, ctx);
  EXPECT_TRUE(respects_lists(g, color, lists));
}

TEST(DegPlusOne, PartialInstanceExtendsColoring) {
  Graph g = complete_graph(6);  // Delta = 5
  std::vector<Color> color(6, kNoColor);
  color[0] = 3;
  color[1] = 1;
  NodeMask active = {0, 0, 1, 1, 1, 1};
  const auto lists = uniform_lists(g, 6);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  deg_plus_one_list_color(g, active, lists, color, ctx);
  EXPECT_TRUE(is_proper_coloring(g, color, 6));
  EXPECT_EQ(color[0], 3);  // pre-colored nodes untouched
  EXPECT_EQ(color[1], 1);
}

TEST(DegPlusOne, PreconditionViolationThrows) {
  Graph g = complete_graph(4);
  std::vector<Color> color(4, kNoColor);
  NodeMask active(4, 1);
  const auto lists = uniform_lists(g, 3);  // needs >= 4 colors
  RoundLedger ledger;
  LocalContext ctx(ledger);
  EXPECT_THROW(deg_plus_one_list_color(g, active, lists, color, ctx),
               std::logic_error);
}

TEST(DegPlusOne, ActiveNodeAlreadyColoredThrows) {
  Graph g = path_graph(3);
  std::vector<Color> color = {0, kNoColor, kNoColor};
  NodeMask active(3, 1);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  EXPECT_THROW(
      deg_plus_one_list_color(g, active, uniform_lists(g, 3), color, ctx),
      std::logic_error);
}

TEST(DegPlusOne, EmptyActiveSetIsNoop) {
  Graph g = path_graph(5);
  std::vector<Color> color(5, kNoColor);
  NodeMask active(5, 0);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  EXPECT_EQ(deg_plus_one_list_color(g, active, uniform_lists(g, 3), color,
                                    ctx),
            0);
  EXPECT_EQ(ledger.total(), 0);
}

// --- MIS ------------------------------------------------------------------------

TEST(Mis, DeterministicIsMaximalIndependent) {
  for (const Graph& g : test_graphs()) {
    RoundLedger ledger;
    LocalContext ctx(ledger);
    const auto set = mis_deterministic(g, ctx);
    EXPECT_TRUE(is_maximal_independent_set(g, set));
    EXPECT_GT(ledger.total(), 0);
  }
}

// --- maximal matching -------------------------------------------------------------

TEST(Matching, DeterministicIsMaximal) {
  for (const Graph& g : test_graphs()) {
    RoundLedger ledger;
    LocalContext ctx(ledger);
    const auto m = maximal_matching_deterministic(g, ctx);
    EXPECT_TRUE(is_maximal_matching(g, m));
  }
}

TEST(Matching, EdgelessGraph) {
  Graph g(7, {});
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const auto m = maximal_matching_deterministic(g, ctx);
  EXPECT_TRUE(m.empty());
}

// --- ruling sets -------------------------------------------------------------------

TEST(RulingSet, IndependenceAndDomination) {
  for (const Graph& g : test_graphs()) {
    if (g.num_nodes() == 0) continue;
    RoundLedger ledger;
    LocalContext ctx(ledger);
    const RulingSetResult rs = ruling_set(g, ctx);
    EXPECT_TRUE(is_independent_set(g, rs.in_set));
    EXPECT_TRUE(dominates_within(g, rs.in_set, rs.domination_radius))
        << "claimed radius " << rs.domination_radius;
  }
}

TEST(RulingSet, NonEmptyOnNonEmptyGraph) {
  Graph g = cycle_graph(30);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const RulingSetResult rs = ruling_set(g, ctx);
  int members = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (rs.in_set[v]) ++members;
  EXPECT_GE(members, 1);
}

TEST(RulingSet, DominationRadiusIsLogDeltaShaped) {
  // The radius bound depends on the Linial palette (O(log Delta) bits),
  // not on n.
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const auto r1 = ruling_set(random_regular(256, 4, 3), ctx);
  const auto r2 = ruling_set(random_regular(4096, 4, 4), ctx);
  EXPECT_EQ(r1.domination_radius, r2.domination_radius);
}

}  // namespace
}  // namespace deltacolor
