// Eager builder of the line graph L(G), the test oracle for LineGraphView
// (graph/graph_view.hpp): the view must enumerate exactly the adjacency it
// materializes. No library code needs it, so it lives with the tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace deltacolor {

/// The line graph L(G): one node per edge of g, adjacency iff the edges
/// share an endpoint. Node i corresponds to EdgeId i; its identifier
/// folds in the endpoint identifiers, so it stays unique under any host
/// identifier permutation.
inline Graph line_graph(const Graph& g) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto inc = g.incident_edges(v);
    for (std::size_t i = 0; i < inc.size(); ++i)
      for (std::size_t j = i + 1; j < inc.size(); ++j)
        edges.emplace_back(std::min(inc[i], inc[j]),
                           std::max(inc[i], inc[j]));
  }
  Graph lg(g.num_edges(), std::move(edges));
  std::vector<std::uint64_t> ids(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    const std::uint64_t a = std::min(g.id(u), g.id(v));
    const std::uint64_t b = std::max(g.id(u), g.id(v));
    ids[e] = a * (2 * static_cast<std::uint64_t>(g.num_nodes()) + 1) + b;
  }
  lg.set_ids(std::move(ids));
  return lg;
}

}  // namespace deltacolor
