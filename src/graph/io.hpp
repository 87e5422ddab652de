// Plain-text graph serialization: a header line "n m" followed by one "u v"
// line per edge, plus Graphviz export for small illustrations.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace deltacolor {

void write_edge_list(std::ostream& os, const Graph& g);
/// Reads exactly the header's m pairs: a bad header, a missing pair or
/// anything but whitespace after the m-th throws std::runtime_error.
Graph read_edge_list(std::istream& is);

void save_edge_list(const std::string& path, const Graph& g);

/// Graphviz "graph { .. }" output; nodes can carry color labels.
void write_dot(std::ostream& os, const Graph& g,
               const std::vector<Color>* colors = nullptr);

}  // namespace deltacolor
