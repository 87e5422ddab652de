// dcolor-import — writes .dcsr on-disk CSR containers from text edge lists
// and structured graph families.
//
//   dcolor-import edges <in> <out.dcsr> [--format=dc|snap] [--nodes=N]
//   dcolor-import gen path      <n> <out.dcsr>
//   dcolor-import gen cycle     <n> <out.dcsr>
//   dcolor-import gen torus     <rows> <cols> <out.dcsr>
//   dcolor-import gen circulant <n> <k> <out.dcsr>
//   dcolor-import info   <file.dcsr>
//   dcolor-import verify <file.dcsr>
//
// `edges` and `gen` build the graph in memory with the library's edge-list
// builder (which normalizes, sorts and deduplicates the pairs) and
// serialize it with write_csr_file, so RAM grows with the graph. `edges`
// input formats:
//   dc    the repo's own "n m" header + "u v" lines, read by io.hpp's
//         read_edge_pairs (the reader `dcolor color` and `check` use)
//   snap  SNAP-style: '#' comment lines, whitespace-separated pairs,
//         duplicates and both orientations tolerated, self loops skipped.
//         Node count is max id + 1 unless --nodes=N says otherwise.
// The format is sniffed from the first line ('#' => snap) unless forced.
//
// `gen` writes a structured family: path, cycle and torus come from the
// library generators (a torus side may be 2: its doubled wrap edges fold
// into one); circulant(n, k), node i adjacent to i±1..±k mod n with
// Delta = 2k, is built here.
//
// `info` prints the header of an existing container. `verify` re-checks
// every section checksum (load with DELTACOLOR_CSR_VERIFY-independent
// forced verification).
//
// `edges` checks every pair as it reads it: an id that does not fit a
// 32-bit node id (>= 2^32 - 1), a dc header n >= 2^32, an endpoint >= n
// (or >= --nodes), and in a dc file a self loop, a token that is not a
// number, a dangling last number and a pair count other than the header's
// m each stop the import with one "<path>:<line>: ..." line.
//
// Exit codes: 0 success; 2 usage error (including a malformed or
// out-of-range number); 3 unreadable or malformed input, or failed
// verification.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "parse_number.hpp"

const char deltacolor::cli::kProgramName[] = "dcolor-import";

namespace {

using namespace deltacolor;
using cli::parse_number;
using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

constexpr int kExitUsage = 2;
constexpr int kExitBadFile = 3;
/// Edge ids are 32-bit, so a family may emit at most this many pairs.
constexpr std::uint64_t kMaxPairs = std::numeric_limits<EdgeId>::max();

int usage() {
  std::cerr
      << "usage:\n"
         "  dcolor-import edges <in> <out.dcsr> [--format=dc|snap] "
         "[--nodes=N]\n"
         "  dcolor-import gen path      <n> <out.dcsr>\n"
         "  dcolor-import gen cycle     <n> <out.dcsr>\n"
         "  dcolor-import gen torus     <rows> <cols> <out.dcsr>\n"
         "  dcolor-import gen circulant <n> <k> <out.dcsr>\n"
         "  dcolor-import info   <file.dcsr>\n"
         "  dcolor-import verify <file.dcsr>\n"
         "formats: dc = \"n m\" header + \"u v\" lines; snap = '#' "
         "comments + pairs, self loops skipped (sniffed from the first "
         "line unless forced)\n"
         "exit codes: 0 success; 2 usage error (including a malformed or "
         "out-of-range number); 3 unreadable or malformed input / failed "
         "verification\n";
  return kExitUsage;
}

/// One bad input line: cmd_edges prints it as "<path>:<line>: <what>".
[[noreturn]] void bad_line(const std::string& path, std::size_t line,
                           const std::string& what) {
  throw std::runtime_error(path + ":" + std::to_string(line) + ": " + what);
}

/// SNAP-style: '#' comments and blank lines anywhere, whitespace-separated
/// pairs, self loops silently skipped (SNAP dumps contain them routinely).
/// Every kept pair is checked against `nodes` when given. Returns max id +
/// 1 over the kept pairs, 0 when there are none.
NodeId read_snap(std::istream& in, const std::string& path,
                 std::optional<NodeId> nodes, EdgeList* edges) {
  std::uint64_t max_id = 0;
  bool any = false;
  std::string line;
  for (std::size_t number = 1; std::getline(in, line); ++number) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    std::uint64_t u = 0, v = 0;
    if (!(ls >> u >> v))
      bad_line(path, number, "malformed snap line: " + line);
    check_node_id(u, path, number);
    check_node_id(v, path, number);
    if (u == v) continue;
    if (nodes && (u >= *nodes || v >= *nodes))
      bad_line(path, number,
               "edge (" + std::to_string(u) + ", " + std::to_string(v) +
                   ") has an endpoint >= n=" + std::to_string(*nodes));
    edges->emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
    max_id = std::max({max_id, u, v});
    any = true;
  }
  return any ? static_cast<NodeId>(max_id + 1) : 0;
}

/// Serializes g and prints the summary line; `input_edges` is the number
/// of pairs the graph was built from, before deduplication.
void write_graph(const std::string& out, const Graph& g,
                 std::uint64_t input_edges) {
  write_csr_file(out, g);
  std::cout << "wrote " << out << ": n=" << g.num_nodes()
            << " m=" << g.num_edges() << " input_edges=" << input_edges
            << " Delta=" << g.max_degree()
            << " bytes=" << std::filesystem::file_size(out) << "\n";
}

int cmd_edges(int argc, char** argv) {
  std::string format = "auto";
  std::optional<NodeId> nodes;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "dc" && format != "snap") {
        std::cerr << "dcolor-import: invalid " << arg
                  << " (formats: dc, snap)\n";
        return kExitUsage;
      }
    } else if (arg.rfind("--nodes=", 0) == 0) {
      NodeId value = 0;
      if (!parse_number(arg.substr(8), "--nodes", &value)) return kExitUsage;
      nodes = value;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return usage();
  const std::string& in_path = positional[0];
  const std::string& out_path = positional[1];

  std::ifstream in(in_path);
  if (!in.good()) {
    std::cerr << "dcolor-import: cannot open '" << in_path << "'\n";
    return kExitBadFile;
  }
  if (format == "auto") {
    std::string first;
    std::getline(in, first);
    const std::size_t at = first.find_first_not_of(" \t\r");
    format = (at != std::string::npos && first[at] == '#') ? "snap" : "dc";
    in.clear();
    in.seekg(0);
  }

  try {
    EdgePairs read;
    if (format == "dc") {
      read = read_edge_pairs(in, in_path, nodes);
    } else {
      const NodeId found = read_snap(in, in_path, nodes, &read.pairs);
      read.num_nodes = nodes.value_or(found);
    }
    const std::uint64_t input_edges = read.pairs.size();
    write_graph(out_path, Graph(read.num_nodes, std::move(read.pairs)),
                input_edges);
  } catch (const std::exception& e) {
    std::cerr << "dcolor-import: " << e.what() << "\n";
    return kExitBadFile;
  }
  return 0;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string family = argv[2];
  try {
    if ((family == "path" || family == "cycle") && argc == 5) {
      NodeId n = 0;
      if (!parse_number(argv[3], "n", &n)) return kExitUsage;
      if (family == "cycle" && n < 3) {
        std::cerr << "dcolor-import: cycle needs n >= 3\n";
        return kExitUsage;
      }
      const Graph g = family == "path" ? path_graph(n) : cycle_graph(n);
      write_graph(argv[4], g, g.num_edges());
      return 0;
    }
    if (family == "torus" && argc == 6) {
      NodeId rows = 0, cols = 0;
      if (!parse_number(argv[3], "rows", &rows) ||
          !parse_number(argv[4], "cols", &cols))
        return kExitUsage;
      if (rows < 2 || cols < 2) {
        std::cerr << "dcolor-import: torus needs rows, cols >= 2\n";
        return kExitUsage;
      }
      // Each cell emits its right and down edge.
      const std::uint64_t pairs = 2 * std::uint64_t{rows} * cols;
      if (pairs > kMaxPairs) {
        std::cerr << "dcolor-import: torus needs 2 * rows * cols <= "
                  << kMaxPairs << " (32-bit edge ids), got rows=" << rows
                  << " cols=" << cols << "\n";
        return kExitUsage;
      }
      write_graph(argv[5], torus_grid(rows, cols), pairs);
      return 0;
    }
    if (family == "circulant" && argc == 6) {
      NodeId n = 0, k = 0;
      if (!parse_number(argv[3], "n", &n) || !parse_number(argv[4], "k", &k))
        return kExitUsage;
      if (n < 3 || k < 1 || 2 * std::uint64_t{k} >= n) {
        std::cerr << "dcolor-import: circulant needs n >= 3 and 1 <= k < "
                     "n/2\n";
        return kExitUsage;
      }
      const std::uint64_t pairs = std::uint64_t{n} * k;
      if (pairs > kMaxPairs) {
        std::cerr << "dcolor-import: circulant needs n * k <= " << kMaxPairs
                  << " (32-bit edge ids), got n=" << n << " k=" << k
                  << "\n";
        return kExitUsage;
      }
      // The +1..+k arcs of every node cover each edge once.
      EdgeList edges;
      edges.reserve(pairs);
      for (std::uint64_t i = 0; i < n; ++i)
        for (std::uint64_t s = 1; s <= k; ++s)
          edges.emplace_back(static_cast<NodeId>(i),
                             static_cast<NodeId>((i + s) % n));
      write_graph(argv[5], Graph(n, std::move(edges)), pairs);
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "dcolor-import: " << e.what() << "\n";
    return kExitBadFile;
  }
  if (family == "path" || family == "cycle" || family == "torus" ||
      family == "circulant")
    return usage();  // right family, wrong arity
  std::cerr << "dcolor-import: unknown family '" << family
            << "' (families: path, cycle, torus, circulant)\n";
  return kExitUsage;
}

int cmd_info(int argc, char** argv) {
  if (argc != 3) return usage();
  const std::string path = argv[2];
  try {
    const CsrFileInfo info = peek_csr_file(path);
    std::cout << "dcsr v" << info.header.version << " n="
              << info.header.num_nodes << " m=" << info.header.num_edges
              << " Delta=" << info.header.max_degree
              << " bytes=" << info.file_bytes << "\n";
    for (int s = 0; s < kNumSections; ++s) {
      const CsrSection& sec = info.header.sections[s];
      std::cout << "  " << kCsrSectionNames[s] << ": offset=" << sec.offset
                << " bytes=" << sec.bytes << " checksum=" << std::hex
                << sec.checksum << std::dec << "\n";
    }
  } catch (const CsrError& e) {
    std::cerr << "dcolor-import: " << e.what() << "\n";
    return kExitBadFile;
  }
  return 0;
}

int cmd_verify(int argc, char** argv) {
  if (argc != 3) return usage();
  try {
    CsrLoadOptions opt;
    opt.verify = CsrVerify::kAlways;
    const Graph g = load_csr_file(argv[2], opt);
    std::cout << "ok: n=" << g.num_nodes() << " m=" << g.num_edges()
              << " Delta=" << g.max_degree() << "\n";
  } catch (const CsrError& e) {
    std::cerr << "dcolor-import: " << e.what() << "\n";
    return kExitBadFile;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "edges") return cmd_edges(argc, argv);
  if (cmd == "gen") return cmd_gen(argc, argv);
  if (cmd == "info") return cmd_info(argc, argv);
  if (cmd == "verify") return cmd_verify(argc, argv);
  if (cmd == "--help" || cmd == "-h") {
    usage();
    return 0;
  }
  return usage();
}
