// Landscape explorer: measures the round complexity of every distributed
// subroutine on growing graphs — an empirical slice of Figure 1's LCL
// complexity landscape (log*, log Delta, log n tiers) from the paper's
// introduction.
//
//   $ ./landscape_explorer
#include <iomanip>
#include <iostream>

#include "deltacolor.hpp"

namespace {

using namespace deltacolor;

struct Row {
  NodeId n;
  std::int64_t linial, mis, matching, ruling, split, heg, full;
};

Row measure(int cliques, int delta, std::uint64_t seed) {
  CliqueInstanceOptions gen;
  gen.num_cliques = cliques;
  gen.delta = delta;
  gen.clique_size = delta;
  gen.seed = seed;
  const CliqueInstance inst = clique_blowup_instance(gen);
  const Graph& g = inst.graph;
  Row row{};
  row.n = g.num_nodes();
  {
    RoundLedger l;
    LocalContext ctx(l);
    linial_coloring(g, ctx);
    row.linial = l.total();
  }
  {
    RoundLedger l;
    LocalContext ctx(l);
    mis_deterministic(g, ctx);
    row.mis = l.total();
  }
  {
    RoundLedger l;
    LocalContext ctx(l);
    maximal_matching_pr(g, ctx);
    row.matching = l.total();
  }
  {
    RoundLedger l;
    LocalContext ctx(l);
    ruling_set(g, ctx);
    row.ruling = l.total();
  }
  {
    RoundLedger l;
    LocalContext ctx(l, {}, seed);
    degree_split(g, 2, 64, ctx);
    row.split = l.total();
  }
  {
    const auto res = delta_color_dense(g, scaled_options(delta));
    row.heg = res.ledger.phase_total("phase1-heg");
    row.full = res.ledger.total();
  }
  return row;
}

}  // namespace

int main() {
  std::cout << "Round complexity of the library's subroutines on hard dense\n"
               "instances (Delta = 16). log*-tier columns stay flat; the\n"
               "HEG column carries the O(log n) dependence of Theorem 1.\n\n";
  std::cout << std::setw(8) << "n" << std::setw(9) << "linial"
            << std::setw(7) << "mis" << std::setw(10) << "matching"
            << std::setw(8) << "ruling" << std::setw(7) << "split"
            << std::setw(7) << "heg" << std::setw(9) << "total\n";
  for (const int cliques : {16, 32, 64, 128, 256, 512}) {
    const Row r = measure(cliques, 16, 11);
    std::cout << std::setw(8) << r.n << std::setw(9) << r.linial
              << std::setw(7) << r.mis << std::setw(10) << r.matching
              << std::setw(8) << r.ruling << std::setw(7) << r.split
              << std::setw(7) << r.heg << std::setw(9) << r.full << "\n";
  }
  std::cout << "\n(log* n growth is invisible at these sizes; the constant\n"
               "Delta-dependent terms (class sweeps, matching slots,\n"
               "splitting) dominate the totals, and\n"
               "only the hyperedge-grabbing phase scales with log n.)\n";
  return 0;
}
