// Unit tests for the degree-balanced vertex partitioner behind the engine's
// stable worker chunks: contiguity and coverage of the bounds, weighting
// by degree, alignment, and more parts than nodes.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"

namespace deltacolor {
namespace {

Graph path_graph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return Graph(n, std::move(edges));
}

TEST(DegreeBalancedBounds, CoversRangeContiguously) {
  const Graph g = random_regular(1000, 8, 3);
  for (int parts : {1, 2, 3, 7, 16}) {
    const auto bounds = degree_balanced_bounds(g, parts);
    ASSERT_EQ(bounds.size(), static_cast<std::size_t>(parts) + 1);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), g.num_nodes());
    for (int p = 0; p < parts; ++p) EXPECT_LE(bounds[p], bounds[p + 1]);
  }
}

TEST(DegreeBalancedBounds, BalancesByDegreeWeight) {
  // A star center carries almost all the weight; with 2 parts the split
  // must isolate it rather than halving the index range.
  const NodeId n = 1001;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back({0, v});
  const Graph g = Graph(n, std::move(edges));
  const auto bounds = degree_balanced_bounds(g, 2);
  // Center weight = deg + 1 = n, leaves weight 2; total ~ 3n. The first
  // part hits its half-total target after the center plus ~n/4 leaves —
  // far left of the n/2 midpoint an unweighted split would pick.
  EXPECT_GT(bounds[1], 0u);
  EXPECT_LT(bounds[1], n / 3);
}

TEST(DegreeBalancedBounds, AlignmentRoundsBoundaries) {
  const Graph g = random_regular(1000, 8, 3);
  const auto bounds = degree_balanced_bounds(g, 4, /*align=*/64);
  for (std::size_t p = 1; p + 1 < bounds.size(); ++p)
    EXPECT_EQ(bounds[p] % 64, 0u) << "part " << p;
  EXPECT_EQ(bounds.back(), g.num_nodes());
}

TEST(DegreeBalancedBounds, MorePartsThanNodes) {
  const Graph g = path_graph(3);
  const auto bounds = degree_balanced_bounds(g, 8);
  ASSERT_EQ(bounds.size(), 9u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 3u);
  for (std::size_t p = 0; p + 1 < bounds.size(); ++p)
    EXPECT_LE(bounds[p], bounds[p + 1]);
}

}  // namespace
}  // namespace deltacolor
