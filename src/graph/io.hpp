// Plain-text graph serialization: a header line "n m" followed by one "u v"
// line per edge, plus Graphviz export for small illustrations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace deltacolor {

void write_edge_list(std::ostream& os, const Graph& g);

/// A text edge list as read, before the Graph constructor folds duplicates.
struct EdgePairs {
  NodeId num_nodes = 0;  ///< the header's n, or the `nodes` override
  std::vector<std::pair<NodeId, NodeId>> pairs;  ///< in file order
};

/// Reads an "n m" header and then exactly m "u v" pairs, as whitespace-
/// separated numbers across lines. Every fault throws std::runtime_error
/// with one "<path>:<line>: <what>" message (`path` only names the input):
/// a token that is not a number, a node count or id that does not fit a
/// 32-bit node id (ids must be < 2^32 - 1; a negative id wraps to a huge
/// one), a self loop, an endpoint >= n, a last number with no partner,
/// and a pair count other than m. A missing header throws too. With
/// `nodes`, endpoints must be below it instead, and it is the node count.
EdgePairs read_edge_pairs(std::istream& is, const std::string& path,
                          std::optional<NodeId> nodes = std::nullopt);

/// read_edge_pairs, built into a Graph.
Graph read_edge_list(std::istream& is, const std::string& path);

/// The node-id rule of the text readers: throws read_edge_pairs'
/// "<path>:<line>: node id N does not fit a 32-bit node id" unless
/// id < kNoNode (the one value a 32-bit id reserves).
void check_node_id(std::uint64_t id, const std::string& path,
                   std::size_t line);

void save_edge_list(const std::string& path, const Graph& g);

/// Graphviz "graph { .. }" output; nodes can carry color labels.
void write_dot(std::ostream& os, const Graph& g,
               const std::vector<Color>* colors = nullptr);

}  // namespace deltacolor
