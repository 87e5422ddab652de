// E2 — Theorem 1, Delta-dependence: the paper's bound is
// min{O~(log^{5/3} n), O(Delta + log n)}.
//
// Sweep Delta at (roughly) fixed n. Our realized list-coloring / matching
// substitutions run class-greedy sweeps over Kuhn-Wattenhofer-reduced
// schedules, so the measured totals grow ~Delta*log(Delta) — between the
// paper's O(Delta) black boxes and naive class-greedy's Delta^2 (the
// substitution is documented in DESIGN.md). The table separates the
// n-dependent HEG phase, which stays flat, from the Delta-dependent
// constants.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "bench_support/sweep.hpp"
#include "bench_support/table.hpp"
#include "bench_support/workloads.hpp"
#include "common/stats.hpp"
#include "deltacolor.hpp"

namespace {

using namespace deltacolor;
using namespace deltacolor::bench;

void run_tables() {
  banner("E2",
         "Theorem 1: Delta-dependence at fixed n (realized as Delta*log Delta "
         "by the KW-scheduled class-greedy substitutions)");
  const std::vector<int> delta_grid = {12, 16, 24, 32, 48, 63};

  struct Row {
    NodeId n = 0;
    DeltaColoringResult res;
  };
  SweepDriver driver;
  const auto rows = driver.run<Row>(
      delta_grid.size(), [&](std::size_t i, EngineOptions engine) {
        const int delta = delta_grid[i];
        const int cliques = std::max(16, 8192 / delta / delta * 2);
        const auto inst = hard_instance(cliques, delta, 5);
        auto opt = scaled_options(delta);
        opt.engine = engine;
        Row row;
        row.res = delta_color_dense(inst.graph, opt);
        row.n = inst.graph.num_nodes();
        return row;
      });

  Table t({"Delta", "n", "rounds(total)", "heg", "total/Delta^2", "valid"});
  std::vector<double> deltas, totals;
  for (std::size_t i = 0; i < delta_grid.size(); ++i) {
    const int delta = delta_grid[i];
    const auto& res = rows[i].res;
    t.row(delta, rows[i].n, res.ledger.total(),
          res.ledger.phase_total("phase1-heg"),
          static_cast<double>(res.ledger.total()) / (delta * delta),
          res.valid ? "yes" : "NO");
    deltas.push_back(delta);
    totals.push_back(static_cast<double>(res.ledger.total()));
  }
  t.print();
  for (std::size_t i = 0; i < delta_grid.size(); ++i) {
    const auto& res = rows[i].res;
    BenchJson("E2")
        .field("delta", delta_grid[i])
        .field("n", rows[i].n)
        .field("valid", res.valid)
        .field("heg", res.ledger.phase_total("phase1-heg"))
        .ledger(res.ledger)
        .print();
  }
  // Compare a Delta^2 fit against a Delta*log2(Delta) fit: with the
  // Kuhn-Wattenhofer schedules the realized dependence is the latter.
  std::vector<double> d2(deltas.size()), dlog(deltas.size());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    d2[i] = deltas[i] * deltas[i];
    dlog[i] = deltas[i] * std::log2(deltas[i]);
  }
  const LinearFit fit2 = fit_linear(d2, totals);
  const LinearFit fitl = fit_linear(dlog, totals);
  std::cout << "fit total ~ " << fit2.intercept << " + " << fit2.slope
            << " * Delta^2        (r2 = " << fit2.r2 << ")\n";
  std::cout << "fit total ~ " << fitl.intercept << " + " << fitl.slope
            << " * Delta*log2(D)  (r2 = " << fitl.r2 << ")\n";
  std::cout << driver.report() << "\n";
}

void BM_ColoringByDelta(benchmark::State& state) {
  const int delta = static_cast<int>(state.range(0));
  const auto inst = hard_instance(32, delta, 5);
  for (auto _ : state) {
    const auto res = delta_color_dense(inst.graph, scaled_options(delta));
    benchmark::DoNotOptimize(res.color.data());
    state.counters["rounds"] = static_cast<double>(res.ledger.total());
  }
}
BENCHMARK(BM_ColoringByDelta)->Arg(12)->Arg(24)->Arg(48)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
