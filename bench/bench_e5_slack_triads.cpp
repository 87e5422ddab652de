// E5 — Lemmas 15 and 16 (and Figures 2/3): the slack triads are vertex
// disjoint, each clique holds at most (Delta - 2*eps*Delta - 1)/2 + 1
// slack pair vertices, and the virtual conflict graph G_V over slack pairs
// has maximum degree at most Delta - 2 (so same-coloring the pairs is a
// deg+1-list instance).
#include <benchmark/benchmark.h>

#include "bench_support/sweep.hpp"
#include "bench_support/table.hpp"
#include "bench_support/workloads.hpp"
#include "deltacolor.hpp"

namespace {

using namespace deltacolor;
using namespace deltacolor::bench;

void run_tables() {
  banner("E5", "Lemmas 15/16: slack triads and the virtual graph G_V");

  struct Cell {
    int delta;
    std::uint64_t seed;
  };
  std::vector<Cell> cells;
  for (const int delta : {16, 32, 63})
    for (const std::uint64_t seed : {1ull, 2ull, 3ull})
      cells.push_back({delta, seed});

  SweepDriver driver;
  const auto rows = driver.run<DeltaColoringResult>(
      cells.size(), [&](std::size_t i, EngineOptions engine) {
        const Cell& c = cells[i];
        const auto inst = hard_instance(48, c.delta, c.seed);
        auto opt = scaled_options(c.delta);
        opt.engine = engine;
        return delta_color_dense(inst.graph, opt);
      });

  Table t({"Delta", "cliques", "seed", "triads", "dropped",
           "maxPairs/clique", "pairBound", "deg(G_V)", "Delta-2", "lemma16"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const auto& res = rows[i];
    const auto& st = res.hard_stats;
    const auto opt = scaled_options(c.delta);
    const double pair_bound =
        0.5 * (c.delta - 2 * opt.acd.epsilon * c.delta - 1) + 1;
    t.row(c.delta, res.num_cliques, c.seed, st.num_triads,
          st.dropped_triads, st.max_slack_pairs_per_clique, pair_bound,
          st.max_gv_degree, c.delta - 2, verdict(st.lemma16_ok));
  }
  t.print();
  std::cout << "\n(Figure 2/3 reproduction: every Type I+ clique ends up\n"
               "with one triad; pairs form the virtual graph G_V whose\n"
               "degree bound makes Phase 4A a deg+1-list instance.)\n";
  std::cout << driver.report() << "\n";
}

void BM_TriadFormation(benchmark::State& state) {
  const auto inst = hard_instance(128, 16, 6);
  for (auto _ : state) {
    const auto res = delta_color_dense(inst.graph, scaled_options(16));
    benchmark::DoNotOptimize(res.hard_stats.num_triads);
  }
}
BENCHMARK(BM_TriadFormation)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
