// Unit tests for the Graph data structure, derived graphs, and checkers.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/subgraph.hpp"

namespace deltacolor {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g(0, {});
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0);
  EXPECT_EQ(g.num_components(), 0u);
}

TEST(Graph, IsolatedNodes) {
  Graph g(5, {});
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(3), 0);
  EXPECT_EQ(g.num_components(), 5u);
}

TEST(Graph, TriangleBasics) {
  Graph g(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
  const EdgeId e = g.edge_between(1, 2);
  ASSERT_NE(e, kNoEdge);
  EXPECT_EQ(g.endpoints(e), (std::pair<NodeId, NodeId>{1, 2}));
  EXPECT_EQ(g.other_endpoint(e, 1), 2u);
  EXPECT_EQ(g.other_endpoint(e, 2), 1u);
}

TEST(Graph, DeduplicatesAndNormalizesEdges) {
  Graph g(3, {{1, 0}, {0, 1}, {2, 1}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(1), 2);
}

TEST(Graph, SelfLoopRejected) {
  EXPECT_THROW(Graph(3, {{1, 1}}), std::logic_error);
}

TEST(Graph, OutOfRangeRejected) {
  EXPECT_THROW(Graph(2, {{0, 5}}), std::logic_error);
}

TEST(Graph, NeighborsSorted) {
  Graph g(5, {{3, 0}, {3, 4}, {3, 1}, {3, 2}});
  const auto nbrs = g.neighbors(3);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Graph, IncidentEdgesAlignWithNeighbors) {
  Graph g = complete_graph(6);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto inc = g.incident_edges(v);
    ASSERT_EQ(nbrs.size(), inc.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      EXPECT_EQ(g.other_endpoint(inc[i], v), nbrs[i]);
  }
}

TEST(Graph, IdsDefaultIdentityAndSettable) {
  Graph g = cycle_graph(4);
  EXPECT_EQ(g.id(2), 2u);
  g.set_ids({7, 3, 9, 11});
  EXPECT_EQ(g.id(0), 7u);
  EXPECT_THROW(g.set_ids({1, 1, 2, 3}), std::logic_error);  // duplicates
  EXPECT_THROW(g.set_ids({1, 2, 3}), std::logic_error);     // wrong size
}

TEST(Graph, ShuffledIdsArePermutation) {
  auto ids = shuffled_ids(100, 42);
  std::sort(ids.begin(), ids.end());
  for (NodeId i = 0; i < 100; ++i) EXPECT_EQ(ids[i], i);
}

// find_duplicate_id against the sort it replaced where ids are dense: the
// verdicts must agree, and a reported id must really repeat. The cases
// cover both paths (dense ids take the bitmap, wide 64-bit ids the sort),
// max id on either side of the bitmap cutoff, and a duplicate at the first,
// last and adjacent positions.
TEST(Graph, SetIdsCheckMatchesSort) {
  const auto expect_matches_sort = [](const std::vector<std::uint64_t>& ids,
                                      const std::string& label) {
    auto sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    const bool unique =
        std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
    const auto duplicate = find_duplicate_id(ids);
    EXPECT_EQ(!duplicate.has_value(), unique) << label;
    if (duplicate) {
      EXPECT_GE(std::count(ids.begin(), ids.end(), *duplicate), 2) << label;
    }
    Graph g(static_cast<NodeId>(ids.size()), {});
    if (unique)
      EXPECT_NO_THROW(g.set_ids(ids)) << label;
    else
      EXPECT_THROW(g.set_ids(ids), std::logic_error) << label;
  };
  constexpr NodeId kN = 1000;
  Rng rng(17);
  std::vector<std::vector<std::uint64_t>> bases;
  bases.push_back(shuffled_ids(kN, 3));  // dense: bitmap
  {
    std::vector<std::uint64_t> wide(kN);  // 64-bit: sort
    for (auto& id : wide) id = rng();
    wide[kN / 2] = ~std::uint64_t{0};
    bases.push_back(std::move(wide));
  }
  // max id / 64 == n is the last bitmap case, n + 1 the first sorted one.
  for (const std::uint64_t max_id : {std::uint64_t{64} * kN + 63,
                                     std::uint64_t{64} * (kN + 1)}) {
    auto ids = shuffled_ids(kN, 5);
    ids[kN / 3] = max_id;
    bases.push_back(std::move(ids));
  }
  for (std::size_t b = 0; b < bases.size(); ++b) {
    const std::string base = "base " + std::to_string(b);
    expect_matches_sort(bases[b], base + " unique");
    const std::vector<std::pair<std::size_t, std::size_t>> copies = {
        {1, 0}, {kN - 1, 0}, {0, kN - 1}, {kN / 2, kN - 1},
        {kN / 2, kN / 2 + 1}, {kN / 2 + 1, kN / 2}};
    for (const auto& [from, to] : copies) {
      auto ids = bases[b];
      ids[to] = ids[from];
      expect_matches_sort(ids, base + " copy " + std::to_string(from) +
                                   "->" + std::to_string(to));
    }
  }
  expect_matches_sort({}, "empty");
  expect_matches_sort({~std::uint64_t{0}}, "single max id");
  expect_matches_sort({0, 0}, "two zeros");
}

TEST(Graph, WithinDistance) {
  Graph g = path_graph(10);
  EXPECT_TRUE(g.within_distance(0, 3, 3));
  EXPECT_FALSE(g.within_distance(0, 4, 3));
  EXPECT_TRUE(g.within_distance(5, 5, 0));
}

TEST(Graph, Components) {
  Graph g(6, {{0, 1}, {2, 3}, {3, 4}});
  EXPECT_EQ(g.num_components(), 3u);
}

// --- subgraph / derived graphs ----------------------------------------------

TEST(Subgraph, InducedSubgraphKeepsEdgesAndIds) {
  Graph g = complete_graph(6);
  g.set_ids({10, 20, 30, 40, 50, 60});
  const Subgraph s = induced_subgraph(g, {1, 3, 5});
  EXPECT_EQ(s.graph.num_nodes(), 3u);
  EXPECT_EQ(s.graph.num_edges(), 3u);  // induced triangle
  EXPECT_EQ(s.sub_of[1], 0u);
  EXPECT_EQ(s.orig_of[2], 5u);
  EXPECT_EQ(s.sub_of[0], kNoNode);
  EXPECT_EQ(s.graph.id(0), 20u);
}

TEST(Subgraph, InducedSubgraphOfPathDropsOutsideEdges) {
  Graph g = path_graph(5);
  const Subgraph s = induced_subgraph(g, {0, 2, 4});
  EXPECT_EQ(s.graph.num_edges(), 0u);
}

TEST(Subgraph, ConnectedComponentsLists) {
  Graph g(5, {{0, 1}, {3, 4}});
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 3);
  const auto lists = component_node_lists(c);
  ASSERT_EQ(lists.size(), 3u);
  std::size_t total = 0;
  for (const auto& l : lists) total += l.size();
  EXPECT_EQ(total, 5u);
}

// --- checker ------------------------------------------------------------------

TEST(Checker, ProperColoring) {
  Graph g = cycle_graph(4);
  EXPECT_TRUE(is_proper_coloring(g, {0, 1, 0, 1}, 2));
  EXPECT_FALSE(is_proper_coloring(g, {0, 1, 0, 0}, 2));   // conflict
  EXPECT_FALSE(is_proper_coloring(g, {0, 1, 0, 2}, 2));   // palette overflow
  EXPECT_FALSE(is_proper_coloring(g, {0, 1, 0, kNoColor}, 2));  // incomplete
  EXPECT_FALSE(is_proper_coloring(g, {0, 1, 0, -7}, 2));  // negative
}

TEST(Checker, DeltaColoring) {
  Graph g = cycle_graph(6);  // Delta = 2, even cycle: 2-colorable
  EXPECT_TRUE(is_delta_coloring(g, {0, 1, 0, 1, 0, 1}));
  Graph k4 = complete_graph(4);  // Delta = 3; K4 is not 3-colorable
  EXPECT_FALSE(is_delta_coloring(k4, {0, 1, 2, 0}));
}

TEST(Checker, ColoringReportCounts) {
  Graph g = path_graph(4);
  const auto r = check_coloring(g, {0, 0, kNoColor, 1});
  EXPECT_FALSE(r.proper);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.conflicts, 1u);
  EXPECT_EQ(r.uncolored, 1u);
  EXPECT_EQ(r.colors_used, 2);
  // Any value below 0 is no color: two adjacent ones are two uncolored
  // nodes, not a conflict in a color of their own.
  const auto neg = check_coloring(g, {-7, -7, 0, 1});
  EXPECT_TRUE(neg.proper);
  EXPECT_FALSE(neg.complete);
  EXPECT_EQ(neg.uncolored, 2u);
  EXPECT_EQ(neg.colors_used, 2);
  EXPECT_EQ(neg.max_color, 1);
}

// check_coloring as a std::set reference computes it, field for field.
ColoringReport set_reference_report(const Graph& g,
                                    const std::vector<Color>& color) {
  ColoringReport r;
  std::set<Color> used;
  for (const Color c : color) {
    if (c < 0) {
      r.complete = false;
      ++r.uncolored;
    } else {
      used.insert(c);
      r.max_color = std::max(r.max_color, c);
    }
  }
  for (const auto& [u, v] : g.edges()) {
    if (color[u] >= 0 && color[u] == color[v]) {
      r.proper = false;
      ++r.conflicts;
    }
  }
  r.colors_used = static_cast<int>(used.size());
  return r;
}

void expect_report_matches_set_reference(const Graph& g,
                                         const std::vector<Color>& color,
                                         const std::string& tag) {
  const ColoringReport got = check_coloring(g, color);
  const ColoringReport want = set_reference_report(g, color);
  EXPECT_EQ(got.proper, want.proper) << tag;
  EXPECT_EQ(got.complete, want.complete) << tag;
  EXPECT_EQ(got.max_color, want.max_color) << tag;
  EXPECT_EQ(got.colors_used, want.colors_used) << tag;
  EXPECT_EQ(got.conflicts, want.conflicts) << tag;
  EXPECT_EQ(got.uncolored, want.uncolored) << tag;
  EXPECT_EQ(got.describe(), want.describe()) << tag;
}

// The distinct-color count takes a bitmap over [0, max_color] or, for a
// color range wider than the coloring's memory, a sorted copy; both must
// agree with a std::set. Colorings mix small colors, kNoColor, other
// negative values, 2147483647 and colors on either side of the switch
// (a 200-node coloring takes the bitmap up to max_color 6399).
TEST(Checker, ColoringReportMatchesSetReference) {
  expect_report_matches_set_reference(Graph(0, {}), {}, "empty graph");
  const Color kMax = std::numeric_limits<Color>::max();
  expect_report_matches_set_reference(Graph(1, {}), {kMax}, "one node");
  const Color pool[] = {kNoColor, -2, -2147483647 - 1, kMax, kMax - 1,
                        6399,     6400, 6401,         6407, 6408,
                        70000};
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    const Graph g = random_graph(200, 0.05, seed);
    const NodeId n = g.num_nodes();
    const int palette = g.max_degree() + 1;
    // Seed 1 stays inside the palette (the bitmap path); seed 2 leaves
    // every node uncolored; the rest draw a quarter of the nodes from the
    // pool of odd values.
    std::vector<Color> color(n);
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t h = hash_mix(seed, v);
      if (seed == 2) {
        color[v] = h % 2 == 0 ? kNoColor : -5;
      } else if (seed == 1 || h % 4 != 0) {
        color[v] = static_cast<Color>(h / 4 % palette);
      } else {
        color[v] = pool[h / 4 % std::size(pool)];
      }
    }
    expect_report_matches_set_reference(g, color,
                                        "seed " + std::to_string(seed));
    // The largest pooled value alone above the palette.
    std::vector<Color> one_big = color;
    one_big[n / 2] = kMax;
    expect_report_matches_set_reference(
        g, one_big, "seed " + std::to_string(seed) + " + 2147483647");
  }
}

TEST(Checker, Matching) {
  Graph g = path_graph(4);  // edges 0-1, 1-2, 2-3
  const EdgeId e01 = g.edge_between(0, 1);
  const EdgeId e12 = g.edge_between(1, 2);
  const EdgeId e23 = g.edge_between(2, 3);
  std::vector<bool> m(g.num_edges(), false);
  m[e01] = true;
  EXPECT_TRUE(is_matching(g, m));
  EXPECT_FALSE(is_maximal_matching(g, m));  // 2-3 is addable
  m[e23] = true;
  EXPECT_TRUE(is_maximal_matching(g, m));
  m[e12] = true;
  EXPECT_FALSE(is_matching(g, m));
}

TEST(Checker, IndependentSetAndMis) {
  Graph g = cycle_graph(5);
  std::vector<bool> s(5, false);
  s[0] = s[2] = true;
  EXPECT_TRUE(is_independent_set(g, s));
  EXPECT_TRUE(is_maximal_independent_set(g, s));
  s[1] = true;
  EXPECT_FALSE(is_independent_set(g, s));
}

TEST(Checker, RulingSet) {
  Graph g = path_graph(9);
  std::vector<bool> s(9, false);
  s[0] = s[4] = s[8] = true;
  EXPECT_TRUE(is_ruling_set(g, s, 2, 2));
  EXPECT_TRUE(pairwise_distance_greater(g, s, 3));
  EXPECT_FALSE(pairwise_distance_greater(g, s, 4));
  EXPECT_TRUE(dominates_within(g, s, 2));
  EXPECT_FALSE(dominates_within(g, s, 1));
}

TEST(Checker, CliqueCheck) {
  Graph g = complete_graph(5);
  EXPECT_TRUE(is_clique(g, {0, 2, 4}));
  Graph h = cycle_graph(5);
  EXPECT_FALSE(is_clique(h, {0, 1, 2}));
}

TEST(Checker, RespectsLists) {
  Graph g = path_graph(3);
  std::vector<std::vector<Color>> lists = {{0, 1}, {1}, {0}};
  EXPECT_TRUE(respects_lists(g, {0, 1, 0}, lists));
  EXPECT_FALSE(respects_lists(g, {1, 1, 0}, lists));  // conflict 0-1? no: list
}

// --- io -----------------------------------------------------------------------

TEST(Io, RoundTrip) {
  Graph g = random_graph(30, 0.2, 7);
  std::stringstream ss;
  write_edge_list(ss, g);
  Graph h = read_edge_list(ss, "g.txt");
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  const auto he = h.edges();
  const auto ge = g.edges();
  EXPECT_TRUE(std::equal(he.begin(), he.end(), ge.begin(), ge.end()));
}

// A header that undercounts must not drop the pairs after its m-th: the
// graph would lose edges, and a coloring checked against it could be
// improper on the real one. Trailing whitespace is fine.
TEST(Io, RejectsPairsPastHeader) {
  std::stringstream extra("3 1\n0 1\n1 2\n");
  try {
    read_edge_list(extra, "e.txt");
    ADD_FAILURE() << "a pair past the header's m was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "e.txt:1: header declares m=1 but the file has 2 "
                           "pairs");
  }
  std::stringstream junk("3 1\n0 1\nx\n");
  EXPECT_THROW(read_edge_list(junk, "e.txt"), std::runtime_error);
  std::stringstream exact("3 1\n0 1\n \n\t\n");
  EXPECT_EQ(read_edge_list(exact, "e.txt").num_edges(), 1u);
}

TEST(Io, DotContainsEdges) {
  Graph g = path_graph(3);
  std::stringstream ss;
  std::vector<Color> colors = {0, 1, 0};
  write_dot(ss, g, &colors);
  const std::string dot = ss.str();
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("c1"), std::string::npos);
}

}  // namespace
}  // namespace deltacolor
