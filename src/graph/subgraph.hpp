// Derived graphs: induced subgraphs (with node maps) and connected
// components. The line graph L(G) is a lazy view in graph/graph_view.hpp.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace deltacolor {

/// An induced subgraph together with the mapping to/from the host graph.
struct Subgraph {
  Graph graph;
  std::vector<NodeId> orig_of;  ///< sub node -> host node
  std::vector<NodeId> sub_of;   ///< host node -> sub node (kNoNode if absent)
};

/// Subgraph of `g` induced by `nodes` (need not be sorted/unique).
/// Identifiers are inherited from the host graph.
Subgraph induced_subgraph(const Graph& g, const std::vector<NodeId>& nodes);

/// Connected components: returns component index per node and the count.
struct Components {
  std::vector<int> component_of;  ///< per node
  int count = 0;
};
Components connected_components(const Graph& g);

/// Nodes of one component.
std::vector<std::vector<NodeId>> component_node_lists(const Components& c);

}  // namespace deltacolor
