// E3 — Lemma 11: the HEG instance built in Phase 1 has min-degree delta_H
// exceeding 1.1 * rank r_H.
//
// Measured across instance families, Delta values and seeds. Reproduction
// finding (see EXPERIMENTS.md): the paper's stated margin fails integer
// rounding at Delta = 63 with K = 28 (delta_H = floor(63/28) = 2 = r_H);
// it holds once sub-cliques carry >= 3 members — either via larger Delta
// (>= ~150 with K = 28) or via the scaled K used by default here.
#include <benchmark/benchmark.h>

#include "bench_support/sweep.hpp"
#include "bench_support/table.hpp"
#include "bench_support/workloads.hpp"
#include "deltacolor.hpp"

namespace {

using namespace deltacolor;
using namespace deltacolor::bench;

void run_tables() {
  banner("E3", "Lemma 11: delta_H > 1.1 * r_H for the Phase-1 HEG instance");

  struct Cell {
    int delta;
    std::uint64_t seed;
    bool paper_k;
  };
  std::vector<Cell> cells;
  for (const int delta : {16, 32, 63})
    for (const std::uint64_t seed : {1ull, 2ull, 3ull})
      for (const bool paper_k : {false, true}) {
        if (paper_k && delta < 56) continue;  // K = 28 needs |C| >= 56
        cells.push_back({delta, seed, paper_k});
      }

  SweepDriver driver;
  const auto rows = driver.run<DeltaColoringResult>(
      cells.size(), [&](std::size_t i, CellContext& ctx) {
        const Cell& c = cells[i];
        const auto inst = cached_hard(48, c.delta, c.seed, &ctx.ledger());
        DeltaColoringOptions opt = scaled_options(c.delta);
        if (c.paper_k) {
          opt = DeltaColoringOptions{};
          opt.hard.scale_for_delta = false;
        }
        opt.engine = ctx.engine();
        return delta_color_dense(inst->graph, opt);
      });

  Table t({"Delta", "K(eff policy)", "seed", "heg_cliques", "delta_H", "r_H",
           "ratio", "lemma11", "heg_complete"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const auto& st = rows[i].hard_stats;
    t.row(c.delta, c.paper_k ? "paper K=28" : "scaled |Q|>=3", c.seed,
          st.num_heg_cliques, st.heg_min_degree, st.heg_rank, st.heg_ratio,
          verdict(st.lemma11_ok), st.heg_complete ? "yes" : "NO");
  }
  t.print();
  std::cout << "\nNote: ratio 1.0 rows are the documented integer-rounding\n"
               "gap in Lemma 11's stated margin; the HEG instance remains\n"
               "feasible (heg_complete) and the pipeline succeeds.\n";
  std::cout << driver.report() << "\n";
}

void BM_PipelinePhase1(benchmark::State& state) {
  const auto inst = cached_hard(64, 16, 9);
  for (auto _ : state) {
    const auto res = delta_color_dense(inst->graph, scaled_options(16));
    benchmark::DoNotOptimize(res.hard_stats.heg_ratio);
  }
}
BENCHMARK(BM_PipelinePhase1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
