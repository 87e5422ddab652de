// Tests for the distributed primitives: Linial coloring, deg+1 list
// coloring, MIS, maximal matching, and ruling sets — validity on a spread
// of graph families plus round-complexity sanity (log* shape) and the
// ruling set's round charge.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/palette.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "local/context.hpp"
#include "local/sync_runner.hpp"
#include "primitives/color_reduction.hpp"
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

// deg+1 list coloring as composed over a materialized induced subgraph:
// the Linial + KW schedule of the active nodes' subgraph (re-indexed, host
// identifiers), then the class sweep on the host, keyed by the schedule
// class mapped back to host nodes, excluding every host neighbor's color
// through a PaletteSet. The kernel, which steps the active list on the
// host with host-indexed states, must agree with it on every color, the
// returned rounds and the ledger total.
struct DegPlusOneRun {
  std::vector<Color> color;
  int rounds = 0;
  std::int64_t ledger = 0;
};

DegPlusOneRun reference_deg_plus_one(const Graph& g, const NodeMask& active,
                                     const ColorLists& lists,
                                     std::vector<Color> color,
                                     const EngineOptions& engine) {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (active[v]) nodes.push_back(v);
  if (nodes.empty()) return {std::move(color), 0, 0};
  RoundLedger ledger;
  LocalContext ctx(ledger, engine, 1);
  ScopedPhase phase(ctx, "deg+1-list");
  const Subgraph sub = induced_subgraph(g, nodes);
  const LinialResult lin = schedule_coloring(sub.graph, ctx);
  std::vector<Color> class_of(g.num_nodes(), -1);
  for (NodeId i = 0; i < sub.graph.num_nodes(); ++i)
    class_of[sub.orig_of[i]] = lin.color[i];
  Color widest = lists.max_color();
  for (const Color c : color) widest = std::max(widest, c);
  const int width = widest + 1;
  SyncRunner<Color> runner(g, std::move(color), engine);
  std::atomic<bool> failed{false};
  runner.run_keyed(
      lin.num_colors, [&](NodeId v, Color) { return class_of[v]; },
      [&](const SyncRunner<Color>::View& v) -> Color {
        if (class_of[v.node()] != v.round()) return v.self();
        PaletteSet taken(width);
        for (const NodeId u : v.neighbors())
          if (v.neighbor(u) != kNoColor) taken.insert(v.neighbor(u));
        for (const Color c : lists[v.node()])
          if (!taken.contains(c)) return c;
        failed = true;
        return v.self();
      });
  EXPECT_FALSE(failed.load());
  ctx.charge(lin.num_colors);
  return {runner.take_states(), lin.rounds + lin.num_colors, ledger.total()};
}

TEST(DegPlusOne, MatchesMaterializedReference) {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("random(500,0.03)", random_graph(500, 0.03, 81));
  graphs.emplace_back("random(300,0.1)", random_graph(300, 0.1, 82));
  {
    CliqueInstanceOptions opt;
    opt.num_cliques = 256;
    opt.delta = 16;
    opt.clique_size = 16;
    opt.seed = 83;
    graphs.emplace_back("blowup(256,16,16)", clique_blowup_instance(opt).graph);
  }
  const EngineOptions engines[] = {{1}, {8}};
  for (const auto& [name, g] : graphs) {
    const NodeId n = g.num_nodes();
    const int delta = g.max_degree();
    // Lists: uniform {0..Delta}; a per-node shuffle of {0..Delta}; and
    // Delta + 1 distinct colors from [0, Delta + 97) in shuffled order,
    // which crosses 64 colors (the multi-word exclusion path).
    std::vector<std::pair<std::string, ColorLists>> list_kinds;
    list_kinds.emplace_back("uniform", uniform_lists(g, delta + 1));
    for (const int extra : {0, 96}) {
      std::vector<std::vector<Color>> nested(n);
      Rng rng(84 + static_cast<std::uint64_t>(extra));
      for (NodeId v = 0; v < n; ++v) {
        std::vector<Color> pool(static_cast<std::size_t>(delta + 1 + extra));
        std::iota(pool.begin(), pool.end(), Color{0});
        for (std::size_t i = pool.size(); i > 1; --i)
          std::swap(pool[i - 1], pool[rng.below(i)]);
        pool.resize(static_cast<std::size_t>(delta + 1));
        nested[v] = std::move(pool);
      }
      list_kinds.emplace_back(extra == 0 ? "unsorted" : "wide",
                              ColorLists(nested));
    }
    ASSERT_GE(list_kinds.back().second.max_color(), 64);
    for (const double keep : {0.0, -1.0, 0.03, 0.5, 1.0}) {
      // keep < 0: exactly one active node.
      NodeMask active(n, 0);
      Rng pick(85);
      for (NodeId v = 0; v < n; ++v)
        active[v] = keep < 0 ? v == n / 2 : pick.chance(keep);
      for (const auto& [kind, lists] : list_kinds) {
        // Pre-color about a third of the inactive nodes properly from their
        // own lists; a node's list has Delta + 1 distinct colors, so every
        // active node keeps more free colors than active neighbors.
        std::vector<Color> color(n, kNoColor);
        Rng paint(86);
        for (NodeId v = 0; v < n; ++v) {
          if (active[v] || !paint.chance(0.35)) continue;
          const auto list = lists[v];
          const Color c = list[paint.below(list.size())];
          bool clash = false;
          for (const NodeId u : g.neighbors(v)) clash |= color[u] == c;
          if (!clash) color[v] = c;
        }
        for (const EngineOptions& engine : engines) {
          const std::string where =
              name + " keep=" + std::to_string(keep) + " lists=" + kind +
              " workers=" + std::to_string(engine.num_threads);
          const DegPlusOneRun want =
              reference_deg_plus_one(g, active, lists, color, engine);
          RoundLedger ledger;
          LocalContext ctx(ledger, engine, 1);
          std::vector<Color> got = color;
          const int rounds =
              deg_plus_one_list_color(g, active, lists, got, ctx);
          EXPECT_TRUE(got == want.color) << where;
          EXPECT_EQ(rounds, want.rounds) << where;
          EXPECT_EQ(ledger.total(), want.ledger) << where;
          EXPECT_FALSE(find_partial_conflict(g, got).has_value()) << where;
        }
      }
    }
  }
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

TEST(RulingSet, ChargesLinialPlusOneRoundPerPeeledBit) {
  const Graph g = random_regular(256, 4, 3);
  RoundLedger linial_ledger;
  LocalContext linial_ctx(linial_ledger);
  linial_coloring(g, linial_ctx);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const RulingSetResult rs = ruling_set(g, ctx);
  ASSERT_EQ(ledger.phases().size(), 1u);
  EXPECT_EQ(ledger.phases()[0].first, "ruling-set");
  EXPECT_EQ(ledger.total(), linial_ledger.total() + rs.domination_radius);
}

TEST(RulingSet, EmptyGraphSelectsNothingInZeroRounds) {
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const RulingSetResult rs = ruling_set(Graph(0, {}), ctx);
  EXPECT_TRUE(rs.in_set.empty());
  EXPECT_EQ(rs.domination_radius, 0);
  EXPECT_EQ(ledger.total(), 0);
}


}  // namespace
}  // namespace deltacolor
