// Lazy GraphView parity test: LineGraphView must enumerate exactly the
// adjacency of its eager materializer oracle (line_graph in
// eager_graphs.hpp), with matching degrees, identifiers, and dilation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench_support/workloads.hpp"
#include "graph/generators.hpp"
#include "graph/graph_view.hpp"

#include "eager_graphs.hpp"

namespace deltacolor {
namespace {

std::vector<Graph> family() {
  std::vector<Graph> gs;
  gs.push_back(cycle_graph(31));
  gs.push_back(random_regular(200, 5, 3));
  gs.push_back(random_graph(150, 0.06, 4));
  gs.push_back(bench::hard_instance(16, 12, 8).graph);
  return gs;
}

template <typename ViewT>
std::vector<NodeId> sorted_view_neighbors(const ViewT& view, NodeId v) {
  std::vector<NodeId> nbrs;
  view.for_each_neighbor(v, [&](NodeId u) { nbrs.push_back(u); });
  std::sort(nbrs.begin(), nbrs.end());
  return nbrs;
}

std::vector<NodeId> sorted_graph_neighbors(const Graph& g, NodeId v) {
  const auto span = g.neighbors(v);
  std::vector<NodeId> nbrs(span.begin(), span.end());
  std::sort(nbrs.begin(), nbrs.end());
  return nbrs;
}

TEST(GraphViews, LineGraphViewMatchesMaterializedOracle) {
  for (const Graph& g : family()) {
    const Graph oracle = line_graph(g);
    const LineGraphView view(g);

    ASSERT_EQ(view.num_nodes(), oracle.num_nodes());
    // The view reports the structural bound 2*Delta - 2; the materialized
    // line graph's max degree can only be tighter.
    EXPECT_GE(view.max_degree(), oracle.max_degree());
    EXPECT_EQ(view.dilation(), 2);
    for (NodeId e = 0; e < view.num_nodes(); ++e) {
      EXPECT_EQ(view.id(e), oracle.id(e));
      EXPECT_EQ(view.degree(e), oracle.degree(e));
      EXPECT_EQ(sorted_view_neighbors(view, e),
                sorted_graph_neighbors(oracle, e));
    }
  }
}

}  // namespace
}  // namespace deltacolor
