// dcolor — command-line front end for the deltacolor library.
//
//   dcolor gen blowup  <cliques> <delta> <clique_size> <easy%> <seed> <out>
//   dcolor gen ring    <cliques> <clique_size> <seed> <out>
//   dcolor gen regular <n> <degree> <seed> <out>
//   dcolor color <graph> [algorithm] [seed] [out]
//   dcolor check <graph> <coloring>
//
// Algorithms are resolved from the shared registry (the same catalog the
// benches use); `dcolor --list` enumerates them. Unknown names exit with
// status 4 and print the closest registered names.
//
// Global flags (anywhere on the command line):
//   --list         list registered algorithms and exit
//   --load=PATH    graph source for color/check, replacing the positional
//                  <graph> argument; .dcsr files are mmap'd zero-copy
//   --threads=N    worker threads for the round engine (also settable via
//                  the DELTACOLOR_THREADS env var; default: all cores)
//   --repeat=N     color only: run N seeds (seed, seed+1, ...) of the
//                  algorithm over the shared instance as concurrent sweep
//                  cells; print per-seed rounds and aggregate wall-clock
//                  statistics instead of a single ledger (and write no
//                  coloring: an [out] argument exits 2)
//   --validate=M   oracle mode, M in {off, end, phase}: end checks the
//                  final coloring (structured error instead of a hard
//                  abort); phase additionally checks partial-coloring
//                  invariants between pipeline phases (det/rand)
//
// Any other `--` argument is an unknown flag: it exits 2 with the closest
// known flag names, never becoming a positional (an output path, say).
//
// Exit codes: 0 success; 1 runtime failure (invalid result, engine error,
// --validate invariant violation); 2 usage error (unknown flag, extra
// argument, malformed or out-of-range number, invalid flag combination,
// infeasible `gen` sizes); 3 unreadable or malformed input file; 4 unknown
// algorithm or generator family; 5 input outside the algorithm's domain,
// or no Delta-coloring exists (det and rand: Delta < 3, not dense, a
// K_{Delta+1} component; brooks: a K_{Delta+1} or odd-cycle component),
// with `--repeat` too, as one "dcolor: domain-error ..." line.
// Documented here and in `--help`.
//
// Graphs are plain edge lists ("n m" header then "u v" per line) or binary
// .dcsr containers (see graph/csr_file.hpp) — the format is sniffed from
// the file's magic, and `gen` writes .dcsr when the output path has that
// extension. Colorings are "v color" lines. `color` prints the summary and
// round ledger, writes the coloring if an output path is given, and exits
// non-zero on failure.
#include <sys/stat.h>

#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "bench_support/sweep.hpp"
#include "common/stats.hpp"
#include "deltacolor.hpp"
#include "parse_number.hpp"

const char deltacolor::cli::kProgramName[] = "dcolor";

namespace {

using namespace deltacolor;
using cli::parse_number;

// Distinct exit codes (see the header comment; also printed by --help).
constexpr int kExitFailure = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBadFile = 3;
constexpr int kExitUnknownAlgorithm = 4;
constexpr int kExitDomain = 5;

int usage() {
  std::cerr
      << "usage:\n"
         "  dcolor gen blowup  <cliques> <delta> <size> <easy%> <seed> <out>\n"
         "  dcolor gen ring    <cliques> <size> <seed> <out>\n"
         "  dcolor gen regular <n> <degree> <seed> <out>\n"
         "  dcolor color <graph> [algorithm] [seed] [out]\n"
         "  dcolor check <graph> <coloring>\n"
         "graphs: text edge list or binary .dcsr (mmap'd zero-copy; "
         "sniffed by magic; `gen` writes .dcsr when <out> ends in .dcsr)\n"
         "flags: --load=PATH (graph source replacing the positional "
         "<graph>), --list (registered algorithms), --threads=N (engine "
         "workers, 0 = auto; env DELTACOLOR_THREADS), --repeat=N (color: "
         "N seeds as sweep cells, aggregate stats, no [out]), "
         "--validate=off|end|phase (oracle mode: check "
         "the final coloring / every pipeline phase boundary)\n"
         "exit codes: 0 success; 1 runtime failure (invalid result, "
         "engine error, invariant violation); 2 usage error (unknown flag, "
         "extra argument, malformed or out-of-range number, invalid flag "
         "combination, infeasible gen sizes); 3 unreadable or malformed "
         "input file; 4 unknown algorithm or generator family; 5 input "
         "outside the algorithm's domain, or no Delta-coloring exists\n";
  return kExitUsage;
}

/// An unrecognized `--` argument: exit 2 naming the closest known flags
/// (the registry's edit-distance rule), so a stale or misspelled flag is
/// never taken for a positional such as the output path.
int unknown_flag(const std::string& arg) {
  static constexpr std::string_view kFlags[] = {
      "list", "load", "threads", "repeat", "validate", "help"};
  const std::string name = arg.substr(2, arg.find('=') - 2);
  std::cerr << "dcolor: unknown flag '" << arg << "'";
  const auto suggestions = suggest_names(name, kFlags);
  if (!suggestions.empty()) {
    std::cerr << " — did you mean";
    for (std::size_t i = 0; i < suggestions.size(); ++i)
      std::cerr << (i == 0 ? " " : ", ") << "'--" << suggestions[i] << "'";
    std::cerr << "?";
  }
  std::cerr << " (see dcolor --help)\n";
  return kExitUsage;
}

int list_algorithms() {
  std::cout << "registered algorithms:\n";
  for (const AlgorithmEntry& e : algorithm_registry())
    std::cout << "  " << std::left << std::setw(10) << e.name << " "
              << e.description << "\n";
  return 0;
}

EngineOptions g_engine;  // from --threads
int g_repeat = 1;        // from --repeat=N
ValidateMode g_validate = ValidateMode::kOff;  // from --validate=M
std::string g_load_path;                       // from --load=PATH

std::uint64_t file_bytes_of(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0
             ? static_cast<std::uint64_t>(st.st_size)
             : 0;
}

/// Instance provenance, on stderr next to the engine report: where the
/// graph came from (loaded file + format + byte size, or generated
/// family), how big it is, and which LOCAL ids it runs with.
void report_loaded_instance(const std::string& path, bool dcsr,
                            const Graph& g, const char* ids) {
  std::cerr << "dcolor: instance file=" << path
            << " format=" << (dcsr ? "dcsr" : "edge-list")
            << " bytes=" << file_bytes_of(path) << " n=" << g.num_nodes()
            << " m=" << g.num_edges() << " Delta=" << g.max_degree()
            << " ids=" << ids << "\n";
}

void report_generated_instance(const std::string& family, const Graph& g) {
  std::cerr << "dcolor: instance generated family=" << family
            << " n=" << g.num_nodes() << " m=" << g.num_edges()
            << " Delta=" << g.max_degree() << "\n";
}

/// The graph loader of color and check: one-line error + kExitBadFile
/// instead of the library's DC_CHECK (file:line logic_error) for
/// operator-facing input problems. Sniffs the .dcsr magic, so both formats
/// load transparently. With `apply_ids` (color), text instances run with
/// shuffled ids (seed 1); .dcsr instances keep the ids stored in the file,
/// which keeps the ids section zero-copy. check reads no ids.
std::optional<Graph> try_load_graph(const std::string& path, bool apply_ids) {
  const bool dcsr = is_csr_file(path);
  std::optional<Graph> g;
  if (dcsr) {
    try {
      g = load_csr_file(path);
    } catch (const CsrError& e) {
      std::cerr << "dcolor: " << e.what() << "\n";
      return std::nullopt;
    }
  } else {
    std::ifstream is(path);
    if (!is.good()) {
      std::cerr << "dcolor: cannot open graph file '" << path << "'\n";
      return std::nullopt;
    }
    try {
      g = read_edge_list(is, path);
    } catch (const std::runtime_error& e) {  // "<path>:<line>: <fault>"
      std::cerr << "dcolor: " << e.what() << "\n";
      return std::nullopt;
    }
  }
  const bool shuffle = apply_ids && !dcsr;
  if (shuffle) g->set_ids(shuffled_ids(g->num_nodes(), 1));
  report_loaded_instance(path, dcsr, *g, shuffle ? "shuffled" : "file");
  return g;
}

/// `gen` output: .dcsr extension selects the binary container, anything
/// else the text edge list.
void save_graph_as(const std::string& path, const Graph& g) {
  const std::string ext = ".dcsr";
  if (path.size() >= ext.size() &&
      path.compare(path.size() - ext.size(), ext.size(), ext) == 0)
    write_csr_file(path, g);
  else
    save_edge_list(path, g);
}

void write_coloring(const std::string& path, const std::vector<Color>& c) {
  std::ofstream os(path);
  os << c.size() << '\n';
  for (std::size_t v = 0; v < c.size(); ++v) os << v << ' ' << c[v] << '\n';
}

/// Reads a coloring of a graph with `n` nodes: a node-count header, then
/// "node color" lines (blank lines skipped; the last line for a node wins,
/// and a node with no line stays uncolored). The header is compared with
/// `n` before anything is allocated. A line that is not exactly two
/// integers, or names a node outside [0, n), fails with "<path>:<line>:".
std::optional<std::vector<Color>> try_read_coloring(const std::string& path,
                                                    NodeId n) {
  std::ifstream is(path);
  if (!is.good()) {
    std::cerr << "dcolor: cannot open coloring file '" << path << "'\n";
    return std::nullopt;
  }
  std::string text;
  std::size_t line = 0;
  std::istringstream fields;
  // Loads the next non-blank line into `fields`; false at end of file.
  const auto next_line = [&] {
    while (std::getline(is, text)) {
      ++line;
      if (text.find_first_not_of(" \t\r") == std::string::npos) continue;
      fields.clear();
      fields.str(text);
      return true;
    }
    return false;
  };
  // True when nothing but blanks is left on the line.
  const auto at_end = [&] { return (fields >> std::ws).eof(); };
  std::int64_t declared = 0;
  if (!next_line() || !(fields >> declared) || !at_end()) {
    std::cerr << "dcolor: malformed coloring file '" << path
              << "' (expected node count header)\n";
    return std::nullopt;
  }
  if (declared != static_cast<std::int64_t>(n)) {
    std::cerr << "dcolor: coloring has " << declared
              << " nodes but the graph has " << n << "\n";
    return std::nullopt;
  }
  std::vector<Color> c(n, kNoColor);
  while (next_line()) {
    std::int64_t v = 0;
    Color col = 0;
    if (!(fields >> v >> col) || !at_end()) {
      std::cerr << "dcolor: " << path << ":" << line
                << ": expected \"node color\", got '" << text << "'\n";
      return std::nullopt;
    }
    if (v < 0 || v >= static_cast<std::int64_t>(n)) {
      std::cerr << "dcolor: " << path << ":" << line << ": node " << v
                << " is outside [0, " << n << ")\n";
      return std::nullopt;
    }
    c[static_cast<std::size_t>(v)] = col;
  }
  return c;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string kind = argv[2];
  if (kind == "blowup" && argc == 9) {
    CliqueInstanceOptions opt;
    double easy_percent = 0;
    if (!parse_number(argv[3], "cliques", &opt.num_cliques) ||
        !parse_number(argv[4], "delta", &opt.delta) ||
        !parse_number(argv[5], "size", &opt.clique_size) ||
        !parse_number(argv[6], "easy%", &easy_percent, 0.0, 100.0) ||
        !parse_number(argv[7], "seed", &opt.seed))
      return kExitUsage;
    opt.easy_fraction = easy_percent / 100.0;
    // Fail fast instead of letting the library round the request up: the
    // Sidon supergraph of a size < delta blow-up can demand tens of
    // thousands of cliques, which takes minutes to generate.
    if (opt.clique_size < 3 || opt.clique_size > opt.delta) {
      std::cerr << "dcolor: gen blowup needs 3 <= size <= delta, got size="
                << opt.clique_size << " delta=" << opt.delta << "\n";
      return kExitUsage;
    }
    const int min_cliques = min_blowup_cliques(opt.delta, opt.clique_size);
    if (opt.num_cliques < min_cliques) {
      std::cerr << "dcolor: gen blowup with delta=" << opt.delta
                << " size=" << opt.clique_size << " needs at least "
                << min_cliques << " cliques, got " << opt.num_cliques
                << "\n";
      return kExitUsage;
    }
    const CliqueInstance inst = clique_blowup_instance(opt);
    report_generated_instance("blowup", inst.graph);
    save_graph_as(argv[8], inst.graph);
    std::cout << "wrote " << argv[8] << ": n=" << inst.graph.num_nodes()
              << " m=" << inst.graph.num_edges() << " Delta="
              << inst.graph.max_degree() << "\n";
    return 0;
  }
  if (kind == "ring" && argc == 7) {
    int cliques = 0, size = 0;
    std::uint64_t seed = 0;
    if (!parse_number(argv[3], "cliques", &cliques) ||
        !parse_number(argv[4], "size", &size) ||
        !parse_number(argv[5], "seed", &seed))
      return kExitUsage;
    const char* violated = cliques < 3 ? "cliques >= 3"
                           : size < 3  ? "size >= 3"
                                       : nullptr;
    if (violated != nullptr) {
      std::cerr << "dcolor: gen ring needs " << violated
                << ", got cliques=" << cliques << " size=" << size << "\n";
      return kExitUsage;
    }
    const CliqueInstance inst = clique_ring(cliques, size, seed);
    report_generated_instance("ring", inst.graph);
    save_graph_as(argv[6], inst.graph);
    std::cout << "wrote " << argv[6] << ": n=" << inst.graph.num_nodes()
              << "\n";
    return 0;
  }
  if (kind == "regular" && argc == 7) {
    int n = 0, degree = 0;
    std::uint64_t seed = 0;
    if (!parse_number(argv[3], "n", &n) ||
        !parse_number(argv[4], "degree", &degree) ||
        !parse_number(argv[5], "seed", &seed))
      return kExitUsage;
    const bool odd = n % 2 != 0 && degree % 2 != 0;
    const char* violated = degree < 1    ? "degree >= 1"
                           : n <= degree ? "n > degree"
                           : odd         ? "n*degree even"
                                         : nullptr;
    if (violated != nullptr) {
      std::cerr << "dcolor: gen regular needs " << violated
                << ", got n=" << n << " degree=" << degree << "\n";
      return kExitUsage;
    }
    const Graph g = random_regular(static_cast<NodeId>(n), degree, seed);
    report_generated_instance("regular", g);
    save_graph_as(argv[6], g);
    std::cout << "wrote " << argv[6] << ": n=" << g.num_nodes() << "\n";
    return 0;
  }
  if (kind == "blowup" || kind == "ring" || kind == "regular")
    return usage();  // right family, wrong arity
  std::cerr << "dcolor: unknown generator family '" << kind
            << "' (families: blowup, ring, regular)\n";
  return kExitUnknownAlgorithm;
}

/// Per-seed row of the --repeat sweep table.
struct RepeatRow {
  bool ok = false;
  std::int64_t rounds = 0;
  double wall_ms = 0;
  std::string summary;
};

int cmd_color(int argc, char** argv) {
  // With --load=PATH the positional <graph> argument disappears and the
  // remaining positionals shift left one slot.
  const int base = g_load_path.empty() ? 3 : 2;
  if (argc < base) return usage();
  if (argc > base + 3) {
    std::cerr << "dcolor: unexpected extra argument '" << argv[base + 3]
              << "' (color takes [algorithm] [seed] [out])\n";
    return kExitUsage;
  }
  if (g_repeat > 1 && argc > base + 2) {
    std::cerr << "dcolor: --repeat writes no coloring (drop '"
              << argv[base + 2] << "')\n";
    return kExitUsage;
  }
  const std::string graph_path =
      g_load_path.empty() ? argv[2] : g_load_path;
  std::uint64_t seed = 1;
  if (argc > base + 1 && !parse_number(argv[base + 1], "seed", &seed))
    return kExitUsage;
  const std::string algo = argc > base ? argv[base] : "det";
  const AlgorithmEntry* entry = find_algorithm(algo);
  if (entry == nullptr) {
    std::cerr << "dcolor: unknown algorithm '" << algo << "'";
    const auto suggestions = suggest_algorithms(algo);
    if (!suggestions.empty()) {
      std::cerr << " — did you mean";
      for (std::size_t i = 0; i < suggestions.size(); ++i)
        std::cerr << (i == 0 ? " " : ", ") << "'" << suggestions[i] << "'";
      std::cerr << "?";
    }
    std::cerr << " (see dcolor --list)\n";
    return kExitUnknownAlgorithm;
  }

  // One load per process: every --repeat cell runs on this graph.
  const auto loaded = try_load_graph(graph_path, /*apply_ids=*/true);
  if (!loaded) return kExitBadFile;
  const Graph& g = *loaded;
  AlgorithmRequest req;
  req.seed = seed;
  req.engine = g_engine;
  req.validate = g_validate;
  const std::string out = argc > base + 2 ? argv[base + 2] : "";

  if (g_repeat > 1) {
    // Batch mode: seeds seed..seed+N-1 run as sweep cells over the one
    // loaded instance; cells are concurrent when sweep workers are
    // available (each cell's engine is then serialized, see sweep.hpp).
    bench::SweepDriver driver({.cell_engine = g_engine});
    const auto rows = driver.run<RepeatRow>(
        static_cast<std::size_t>(g_repeat),
        [&](std::size_t i, EngineOptions engine) {
          AlgorithmRequest cell_req;
          cell_req.seed = req.seed + i;
          cell_req.engine = engine;
          cell_req.validate = g_validate;
          const auto t0 = std::chrono::steady_clock::now();
          const AlgorithmResult res = entry->run(g, cell_req);
          RepeatRow row;
          row.wall_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
          row.ok = res.ok;
          row.rounds = res.ledger.total();
          row.summary = res.summary;
          return row;
        });
    std::vector<double> rounds, wall;
    bool all_ok = true;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const RepeatRow& row = rows[i];
      std::cout << "seed " << (req.seed + i) << ": rounds=" << row.rounds
                << " wall_ms=" << row.wall_ms << " "
                << (row.ok ? "ok" : "INVALID") << " — " << row.summary
                << "\n";
      rounds.push_back(static_cast<double>(row.rounds));
      wall.push_back(row.wall_ms);
      all_ok = all_ok && row.ok;
    }
    std::cout << "rounds:  " << format_summary(summarize(rounds)) << "\n"
              << "wall_ms: " << format_summary(summarize(wall)) << "\n";
    std::cout << driver.report() << "\n";
    return all_ok ? 0 : kExitFailure;
  }

  const AlgorithmResult res = entry->run(g, req);
  std::cout << res.summary << "\n" << res.ledger.report();
  if (!res.ok) {
    std::cerr << "RESULT INVALID\n";
    return kExitFailure;
  }
  if (!out.empty()) {
    if (!res.color.empty()) {
      write_coloring(out, res.color);
      std::cout << "coloring written to " << out << "\n";
    } else if (!res.in_set.empty()) {
      std::ofstream os(out);
      for (std::size_t i = 0; i < res.in_set.size(); ++i)
        if (res.in_set[i]) os << i << '\n';
      std::cout << (res.set_on_edges ? "edge set" : "set") << " written to "
                << out << "\n";
    }
  }
  return 0;
}

int cmd_check(int argc, char** argv) {
  const int base = g_load_path.empty() ? 3 : 2;
  if (argc != base + 1) return usage();
  const auto g = try_load_graph(g_load_path.empty() ? argv[2] : g_load_path,
                                /*apply_ids=*/false);
  if (!g) return kExitBadFile;
  const auto color = try_read_coloring(argv[base], g->num_nodes());
  if (!color) return kExitBadFile;
  const auto report = check_coloring(*g, *color);
  std::cout << report.describe() << "\n";
  return report.valid_for(g->max_degree()) ? 0 : kExitFailure;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip global engine flags before positional dispatch.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      int n = 0;
      if (!parse_number(arg.substr(10), "--threads", &n, 0)) return kExitUsage;
      // 0 = auto (library default: DELTACOLOR_THREADS env var, else
      // hardware concurrency) — previously this fell through to usage(),
      // silently suggesting the flag had been applied.
      g_engine.num_threads = n;
      if (n > 0) ThreadPool::set_default_workers(n);
    } else if (arg.rfind("--repeat=", 0) == 0) {
      if (!parse_number(arg.substr(9), "--repeat", &g_repeat, 1))
        return kExitUsage;
    } else if (arg.rfind("--validate=", 0) == 0) {
      if (!parse_validate_mode(arg.c_str() + 11, &g_validate)) {
        std::cerr << "dcolor: invalid " << arg
                  << " (modes: off, end, phase)\n";
        return kExitUsage;
      }
    } else if (arg.rfind("--load=", 0) == 0) {
      g_load_path = arg.substr(7);
      if (g_load_path.empty()) {
        std::cerr << "dcolor: invalid --load= (need a path)\n";
        return kExitUsage;
      }
    } else if (arg == "--list") {
      return list_algorithms();
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      return unknown_flag(arg);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (argc < 2) return usage();
  // Resolved engine configuration, printed once so "--threads=0" (auto)
  // never silently runs with an unexpected worker count (or junk in
  // DELTACOLOR_THREADS exits 2 here, before the line starts).
  const int workers = ThreadPool::default_workers();
  std::cerr << "dcolor: engine workers=" << workers
            << " (hw_threads=" << std::thread::hardware_concurrency()
            << ", requested="
            << (g_engine.num_threads == 0 ? std::string("auto")
                                          : std::to_string(
                                                g_engine.num_threads))
            << ")\n";
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") return cmd_gen(argc, argv);
    if (cmd == "color") return cmd_color(argc, argv);
    if (cmd == "check") return cmd_check(argc, argv);
  } catch (const DomainError& e) {
    std::cerr << "dcolor: " << e.what() << "\n";
    return kExitDomain;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitFailure;
  }
  return usage();
}
