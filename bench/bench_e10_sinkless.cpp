// E10 — Section 1.1's intuition: finding slack triads in the "extremely
// dense" case reduces to sinkless orientation, whose distributed
// complexity is Theta(log n) [BFH+16].
//
// Sinkless orientation == rank-2 hyperedge grabbing: every vertex grabs
// (orients outward) one incident edge, no edge is grabbed twice. Sweep n
// on random 3-regular graphs and on the cross-edge structure of clique
// blow-ups; the solver's rounds exhibit the log n shape.
#include <benchmark/benchmark.h>

#include "bench_support/sweep.hpp"
#include "bench_support/table.hpp"
#include "bench_support/workloads.hpp"
#include "common/stats.hpp"
#include "deltacolor.hpp"

namespace {

using namespace deltacolor;
using namespace deltacolor::bench;

Hypergraph edges_as_hypergraph(const Graph& g) {
  Hypergraph h;
  h.num_vertices = static_cast<int>(g.num_nodes());
  for (const auto& [u, v] : g.edges())
    h.edges.push_back({static_cast<int>(u), static_cast<int>(v)});
  h.build_incidence();
  return h;
}

void run_tables() {
  banner("E10", "sinkless orientation (rank-2 HEG) is Theta(log n)-shaped");

  struct Row {
    int vertices = 0;
    int min_degree = 0;
    int rounds = 0;
    bool ok = false;
  };
  {
    std::vector<int> n_grid;
    for (int n = 256; n <= 16384; n *= 4) n_grid.push_back(n);
    SweepDriver driver(sweep_options_from_env());
    const auto rows = driver.run<Row>(
        n_grid.size(), [&](std::size_t i, CellContext& ctx) {
          const int n = n_grid[i];
          const auto g = cached_regular(n, 3, 7 + n, &ctx.ledger());
          const Hypergraph h = edges_as_hypergraph(*g);
          RoundLedger ledger;
          LocalContext lctx(ledger);
          const HegResult res = solve_heg(h, lctx);
          Row row;
          row.rounds = res.rounds;
          row.ok = res.complete && is_valid_heg(h, res);
          return row;
        });
    Table t({"n", "degree", "rounds", "valid"});
    std::vector<double> ns, rounds;
    for (std::size_t i = 0; i < n_grid.size(); ++i) {
      t.row(n_grid[i], 3, rows[i].rounds, rows[i].ok ? "yes" : "NO");
      ns.push_back(n_grid[i]);
      rounds.push_back(rows[i].rounds);
    }
    std::cout << "random 3-regular graphs:\n";
    t.print();
    const LinearFit fit = fit_log(ns, rounds);
    std::cout << "fit rounds ~ " << fit.intercept << " + " << fit.slope
              << " * log2(n)   (r2 = " << fit.r2 << ")\n\n";
  }
  {
    // The paper's virtual construction: one vertex per clique *half*,
    // oriented intra-clique edges give each half >= 3 candidate edges.
    // We emulate it on the clique-contraction multigraph of blow-ups.
    const std::vector<int> clique_grid = {64, 256, 1024};
    SweepDriver driver(sweep_options_from_env());
    const auto rows = driver.run<Row>(
        clique_grid.size(), [&](std::size_t i, CellContext& ctx) {
          const auto inst =
              cached_hard(clique_grid[i], 8, 3, &ctx.ledger());
          // Contract cliques: vertices = cliques, edges = cross edges.
          Hypergraph h;
          h.num_vertices = static_cast<int>(inst->cliques.size());
          for (const auto& [u, v] : inst->graph.edges()) {
            const int cu = inst->clique_of[u], cv = inst->clique_of[v];
            if (cu != cv) h.edges.push_back({cu, cv});
          }
          h.build_incidence();
          RoundLedger ledger;
          LocalContext lctx(ledger);
          const HegResult res = solve_heg(h, lctx);
          Row row;
          row.vertices = static_cast<int>(inst->cliques.size());
          row.min_degree = h.min_degree();
          row.rounds = res.rounds;
          row.ok = res.complete && is_valid_heg(h, res);
          return row;
        });
    Table t({"cliques", "super-degree", "rounds", "valid"});
    for (const Row& row : rows)
      t.row(row.vertices, row.min_degree, row.rounds,
            row.ok ? "yes" : "NO");
    std::cout << "clique-contraction of blow-up instances (each clique "
                 "grabs an outgoing cross edge):\n";
    t.print();
  }
}

void BM_SinklessOrientation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto g = cached_regular(n, 3, 11);
  const Hypergraph h = edges_as_hypergraph(*g);
  for (auto _ : state) {
    RoundLedger ledger;
    LocalContext lctx(ledger);
    benchmark::DoNotOptimize(solve_heg(h, lctx).grabbed_edge.data());
  }
}
BENCHMARK(BM_SinklessOrientation)->Arg(1024)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
