#include "graph/io.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

#include "common/check.hpp"

namespace deltacolor {

namespace {

/// One bad input line, as "<path>:<line>: <what>".
[[noreturn]] void bad_line(const std::string& path, std::size_t line,
                           const std::string& what) {
  throw std::runtime_error(path + ":" + std::to_string(line) + ": " + what);
}

/// Whitespace-separated unsigned numbers across lines, each with the line
/// it came from. As with strtoull, a leading '-' wraps the value modulo
/// 2^64 and a number past 64 bits reads as the largest value;
/// check_node_id rejects both. Any other token is a fault.
class NumberTokens {
 public:
  NumberTokens(std::istream& in, const std::string& path)
      : in_(in), path_(path) {}

  /// Reads the next number; false at the end of the input.
  bool next(std::uint64_t* value) {
    std::string_view token = next_token();
    while (token.empty()) {
      if (!std::getline(in_, text_)) return false;
      ++line_;
      at_ = 0;
      token = next_token();
    }
    const bool negative = token[0] == '-';
    const char* end = token.data() + token.size();
    const auto [ptr, ec] =
        std::from_chars(token.data() + (negative ? 1 : 0), end, *value);
    if (ec == std::errc::invalid_argument || ptr != end)
      bad_line(path_, line_, "'" + std::string(token) + "' is not a number");
    if (ec == std::errc::result_out_of_range)
      *value = std::numeric_limits<std::uint64_t>::max();
    else if (negative)
      *value = 0 - *value;
    return true;
  }

  /// The line of the last number read (1-based).
  std::size_t line() const { return line_; }

 private:
  /// The next token of the current line; empty at its end.
  std::string_view next_token() {
    const auto space = [&](std::size_t i) {
      return std::isspace(static_cast<unsigned char>(text_[i])) != 0;
    };
    while (at_ < text_.size() && space(at_)) ++at_;
    const std::size_t start = at_;
    while (at_ < text_.size() && !space(at_)) ++at_;
    return std::string_view(text_).substr(start, at_ - start);
  }

  std::istream& in_;
  const std::string& path_;
  std::string text_;
  std::size_t at_ = 0;
  std::size_t line_ = 0;
};

}  // namespace

void write_edge_list(std::ostream& os, const Graph& g) {
  os << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edges()) os << u << ' ' << v << '\n';
}

EdgePairs read_edge_pairs(std::istream& is, const std::string& path,
                          std::optional<NodeId> nodes) {
  NumberTokens tokens(is, path);
  std::uint64_t n = 0, m = 0;
  if (!tokens.next(&n) || !tokens.next(&m))
    throw std::runtime_error("malformed edge list in '" + path +
                             "' (expected \"n m\" header)");
  const std::size_t header_line = tokens.line();
  if (n > kNoNode)
    bad_line(path, header_line,
             "node count " + std::to_string(n) +
                 " does not fit a 32-bit node id (max " +
                 std::to_string(kNoNode) + ")");
  EdgePairs read;
  read.num_nodes = nodes.value_or(static_cast<NodeId>(n));
  for (std::uint64_t u = 0, v = 0; tokens.next(&u);) {
    const std::size_t u_line = tokens.line();
    if (!tokens.next(&v))
      bad_line(path, u_line, "node " + std::to_string(u) + " has no partner");
    const std::size_t line = tokens.line();
    check_node_id(u, path, line);
    check_node_id(v, path, line);
    if (u == v) bad_line(path, line, "self loop at node " + std::to_string(u));
    if (u >= read.num_nodes || v >= read.num_nodes)
      bad_line(path, line,
               "edge (" + std::to_string(u) + ", " + std::to_string(v) +
                   ") has an endpoint >= n=" +
                   std::to_string(read.num_nodes));
    read.pairs.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  if (read.pairs.size() != m)
    bad_line(path, header_line,
             "header declares m=" + std::to_string(m) + " but the file has " +
                 std::to_string(read.pairs.size()) + " pairs");
  return read;
}

void check_node_id(std::uint64_t id, const std::string& path,
                   std::size_t line) {
  if (id >= kNoNode)
    bad_line(path, line,
             "node id " + std::to_string(id) +
                 " does not fit a 32-bit node id (max " +
                 std::to_string(kNoNode - 1) + ")");
}

Graph read_edge_list(std::istream& is, const std::string& path) {
  EdgePairs read = read_edge_pairs(is, path);
  return Graph(read.num_nodes, std::move(read.pairs));
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
