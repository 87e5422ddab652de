#include "graph/io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/check.hpp"

namespace deltacolor {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edges()) os << u << ' ' << v << '\n';
}

Graph read_edge_list(std::istream& is) {
  NodeId n = 0;
  EdgeId m = 0;
  if (!(is >> n >> m)) throw std::runtime_error("bad \"n m\" header");
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(m);
  for (EdgeId e = 0; e < m; ++e) {
    NodeId u = 0, v = 0;
    if (!(is >> u >> v))
      throw std::runtime_error("pair " + std::to_string(e + 1) + " of m = " +
                               std::to_string(m) + " is missing or bad");
    edges.emplace_back(u, v);
  }
  // Anything after the m-th pair would be an edge the graph silently lost.
  if (!(is >> std::ws).eof())
    throw std::runtime_error("more pairs than the header's m = " +
                             std::to_string(m));
  return Graph(n, std::move(edges));
}

void save_edge_list(const std::string& path, const Graph& g) {
  std::ofstream os(path);
  DC_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  write_edge_list(os, g);
}

void write_dot(std::ostream& os, const Graph& g,
               const std::vector<Color>* colors) {
  os << "graph G {\n  node [shape=circle];\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    os << "  " << v;
    if (colors != nullptr && (*colors)[v] != kNoColor)
      os << " [label=\"" << v << ":c" << (*colors)[v] << "\"]";
    os << ";\n";
  }
  for (const auto& [u, v] : g.edges()) os << "  " << u << " -- " << v << ";\n";
  os << "}\n";
}

}  // namespace deltacolor
