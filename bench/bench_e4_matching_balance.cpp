// E4 — Lemmas 12 and 13: the balanced matching F2 gives every C_HEG clique
// at least K outgoing edges (Type I) or an adjacent easy clique (Type II);
// the sparsified matching F3 leaves exactly 2 outgoing edges per clique
// and at most (Delta - 2*eps*Delta - 1)/2 incoming ones.
#include <benchmark/benchmark.h>

#include "bench_support/sweep.hpp"
#include "bench_support/table.hpp"
#include "bench_support/workloads.hpp"
#include "deltacolor.hpp"

namespace {

using namespace deltacolor;
using namespace deltacolor::bench;

void run_tables() {
  banner("E4", "Lemmas 12/13: balanced and sparsified matchings F2, F3");

  struct Cell {
    int delta;
    double easy;
    std::uint64_t seed;
  };
  std::vector<Cell> cells;
  for (const int delta : {16, 32})
    for (const double easy : {0.0, 0.2})
      for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull})
        cells.push_back({delta, easy, seed});

  SweepDriver driver;
  const auto rows = driver.run<DeltaColoringResult>(
      cells.size(), [&](std::size_t i, EngineOptions engine) {
        const Cell& c = cells[i];
        const auto inst = mixed_instance(48, c.delta, c.easy, c.seed);
        auto opt = scaled_options(c.delta);
        opt.engine = engine;
        return delta_color_dense(inst.graph, opt);
      });

  Table t({"Delta", "easy%", "seed", "typeI", "typeII", "minOut(F2)",
           "minOut(F3)", "maxIn(F3)", "bound", "fallbacks", "lemma13"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const auto& st = rows[i].hard_stats;
    const auto opt = scaled_options(c.delta);
    const double bound =
        0.5 * (c.delta - 2 * opt.acd.epsilon * c.delta - 1);
    t.row(c.delta, static_cast<int>(c.easy * 100), c.seed, st.type1,
          st.type2, st.min_outgoing_f2, st.min_outgoing_f3,
          st.max_incoming_f3, bound, st.split_fallbacks,
          verdict(st.lemma13_ok));
  }
  t.print();
  std::cout << driver.report() << "\n";
}

void BM_MatchingPhases(benchmark::State& state) {
  const auto inst = hard_instance(96, 16, 4);
  for (auto _ : state) {
    const auto res = delta_color_dense(inst.graph, scaled_options(16));
    benchmark::DoNotOptimize(res.hard_stats.f3_edges);
  }
}
BENCHMARK(BM_MatchingPhases)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
