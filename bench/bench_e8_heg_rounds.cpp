// E8 — Lemma 5 [BMN+25 role]: hyperedge grabbing is solvable in
// O(log_{delta/r} n) rounds when the minimum degree exceeds the rank.
//
// Sweep n and the delta/r ratio on random multihypergraphs; report the
// distributed solver's simulated rounds (log n shape, flattening as the
// expansion delta/r grows) and validate each solution.
#include <benchmark/benchmark.h>

#include "bench_support/sweep.hpp"
#include "bench_support/table.hpp"
#include "bench_support/workloads.hpp"
#include "common/stats.hpp"
#include "deltacolor.hpp"

namespace {

using namespace deltacolor;
using namespace deltacolor::bench;

void run_tables() {
  banner("E8", "Lemma 5: HEG in O(log_{delta/r} n) rounds");
  const std::vector<std::pair<int, int>> targets = {{6, 5}, {8, 4}, {12, 4}};

  struct Cell {
    int delta;
    int rank;
    int n;
  };
  std::vector<Cell> cells;
  for (const auto& [dlt, rank] : targets)
    for (int n = 256; n <= 16384; n *= 4) cells.push_back({dlt, rank, n});

  struct Row {
    int min_degree = 0;
    int rank = 0;
    int rounds = 0;
    bool ok = false;
  };
  SweepDriver driver(sweep_options_from_env());
  const auto rows = driver.run<Row>(
      cells.size(), [&](std::size_t i, CellContext& ctx) {
        const Cell& c = cells[i];
        const auto h = cached_hypergraph(c.n, c.delta, c.rank, 100 + c.n,
                                         &ctx.ledger());
        RoundLedger ledger;
        LocalContext lctx(ledger);
        const HegResult res = solve_heg(*h, lctx);
        Row row;
        row.min_degree = h->min_degree();
        row.rank = h->rank();
        row.rounds = res.rounds;
        row.ok = res.complete && is_valid_heg(*h, res);
        return row;
      });

  std::size_t at = 0;
  for (const auto& [dlt, rank] : targets) {
    Table t({"n", "delta", "rank", "ratio", "rounds", "valid"});
    std::vector<double> ns, rounds;
    for (int n = 256; n <= 16384; n *= 4, ++at) {
      const Row& row = rows[at];
      t.row(n, row.min_degree, row.rank,
            static_cast<double>(row.min_degree) / row.rank, row.rounds,
            row.ok ? "yes" : "NO");
      ns.push_back(n);
      rounds.push_back(row.rounds);
    }
    std::cout << "target min-degree " << dlt << ", rank " << rank << ":\n";
    t.print();
    const LinearFit fit = fit_log(ns, rounds);
    std::cout << "fit rounds ~ " << fit.intercept << " + " << fit.slope
              << " * log2(n)   (r2 = " << fit.r2 << ")\n\n";
  }
  std::cout << "Cross-check: the centralized Hopcroft-Karp-style matcher\n"
               "agrees on feasibility for every instance (asserted in the\n"
               "test suite).\n";
  std::cout << driver.report() << "\n";
}

void BM_HegSolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto h = cached_hypergraph(n, 8, 4, 42);
  for (auto _ : state) {
    RoundLedger ledger;
    LocalContext lctx(ledger);
    const auto res = solve_heg(*h, lctx);
    benchmark::DoNotOptimize(res.grabbed_edge.data());
    state.counters["rounds"] = res.rounds;
  }
}
BENCHMARK(BM_HegSolver)->Arg(512)->Arg(4096)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
