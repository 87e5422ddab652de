// E1 — Theorem 1: the deterministic algorithm Delta-colors constant-degree
// dense graphs in O(log n) rounds.
//
// Sweep n at fixed Delta on all-hard blow-up instances; report total
// rounds, the per-phase breakdown, and least-squares fits of the
// n-dependent phase (hyperedge grabbing) against log2 n. The class-greedy
// subroutines contribute large Delta-dependent constants (documented
// substitutions of the GG24/MT20 black boxes); only the HEG phase grows
// with n, exactly as Lemma 18's decomposition predicts.
//
// Cells run through SweepDriver: instances come from the keyed
// InstanceCache and the grid executes concurrently when sweep workers are
// available, with rows (and BENCH_JSON lines) emitted in grid order.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_support/sweep.hpp"
#include "bench_support/table.hpp"
#include "bench_support/workloads.hpp"
#include "common/stats.hpp"
#include "deltacolor.hpp"

namespace {

using namespace deltacolor;
using namespace deltacolor::bench;

void run_tables() {
  banner("E1", "Theorem 1: deterministic Delta-coloring in O(log n) rounds");

  struct Cell {
    int delta;
    int cliques;
  };
  std::vector<Cell> cells;
  for (const int delta : {16, 32})
    for (int cliques = 32; cliques <= 2048; cliques *= 2)
      cells.push_back({delta, cliques});

  struct Row {
    NodeId n = 0;
    double wall_ms = 0;
    bool valid = false;
    std::int64_t triads = 0;
    RoundLedger ledger;
  };
  SweepDriver driver;
  const auto rows = driver.run<Row>(
      cells.size(),
      [&](std::size_t i, CellContext& ctx) {
        const auto inst = cached_hard(cells[i].cliques, cells[i].delta, 1234,
                                      &ctx.ledger());
        auto opt = scaled_options(cells[i].delta);
        opt.engine = ctx.engine();
        const auto t0 = std::chrono::steady_clock::now();
        Row row;
        const auto res = delta_color_dense(inst->graph, opt);
        row.wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        row.n = inst->graph.num_nodes();
        row.valid = res.valid;
        row.triads = res.hard_stats.num_triads;
        row.ledger = res.ledger;
        return row;
      });

  std::size_t at = 0;
  for (const int delta : {16, 32}) {
    Table t({"n", "rounds(total)", "matching", "heg", "split", "pairs+rest",
             "triads", "valid"});
    std::vector<double> ns, heg_rounds, totals;
    for (int cliques = 32; cliques <= 2048; cliques *= 2, ++at) {
      const Row& row = rows[at];
      const auto& lg = row.ledger;
      BenchJson("E1")
          .field("delta", delta)
          .field("n", row.n)
          .field("valid", row.valid)
          .field("wall_ms", row.wall_ms)
          .ledger(lg)
          .print();
      t.row(row.n, lg.total(), lg.phase_total("phase1-matching"),
            lg.phase_total("phase1-heg"), lg.phase_total("phase2-split"),
            lg.phase_total("phase4a-pairs") + lg.phase_total("phase4b-rest"),
            row.triads, row.valid ? "yes" : "NO");
      ns.push_back(row.n);
      heg_rounds.push_back(
          static_cast<double>(lg.phase_total("phase1-heg")));
      totals.push_back(static_cast<double>(lg.total()));
    }
    std::cout << "Delta = " << delta << ":\n";
    t.print();
    const LinearFit heg_fit = fit_log(ns, heg_rounds);
    const LinearFit total_fit = fit_log(ns, totals);
    std::cout << "fit heg   ~ " << heg_fit.intercept << " + "
              << heg_fit.slope << " * log2(n)   (r2 = " << heg_fit.r2
              << ")\n";
    std::cout << "fit total ~ " << total_fit.intercept << " + "
              << total_fit.slope << " * log2(n)   (r2 = " << total_fit.r2
              << ")\n\n";
  }
  std::cout << driver.report() << "\n";

  // Paper-exact parameters (epsilon = 1/63, K = 28) at Delta = 63.
  {
    const std::vector<int> clique_counts = {128, 256, 512};
    struct ExactRow {
      NodeId n = 0;
      DeltaColoringResult res;
    };
    SweepDriver exact_driver;
    const auto exact = exact_driver.run<ExactRow>(
        clique_counts.size(), [&](std::size_t i, CellContext& ctx) {
          const auto inst =
              cached_hard(clique_counts[i], 63, 7, &ctx.ledger());
          DeltaColoringOptions opt;
          opt.hard.scale_for_delta = false;  // the paper's K = 28
          opt.engine = ctx.engine();
          ExactRow row;
          row.res = delta_color_dense(inst->graph, opt);
          row.n = inst->graph.num_nodes();
          return row;
        });
    Table t({"n", "rounds(total)", "heg", "heg_ratio", "valid"});
    for (const ExactRow& row : exact)
      t.row(row.n, row.res.ledger.total(),
            row.res.ledger.phase_total("phase1-heg"),
            row.res.hard_stats.heg_ratio, row.res.valid ? "yes" : "NO");
    std::cout << "Paper-exact parameters (Delta = 63, epsilon = 1/63, "
                 "K = 28):\n";
    t.print();
  }
}

void BM_DeterministicColoring(benchmark::State& state) {
  const int cliques = static_cast<int>(state.range(0));
  const auto inst = cached_hard(cliques, 16, 99);
  for (auto _ : state) {
    const auto res = delta_color_dense(inst->graph, scaled_options(16));
    benchmark::DoNotOptimize(res.color.data());
    state.counters["rounds"] = static_cast<double>(res.ledger.total());
  }
  state.counters["n"] = inst->graph.num_nodes();
}
BENCHMARK(BM_DeterministicColoring)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
