// E12 — ablations of the design constants the paper fixes:
//  * the sub-clique count K (paper: 28) — Lemma 11's margin and HEG
//    feasibility as K varies;
//  * the splitter configuration (levels, segment length) behind Lemma 13;
//  * the easy fraction of the instance — Type I/II composition and where
//    the work shifts between Algorithm 2 and Algorithm 3;
//  * the randomized T-node spacing b.
//
// The variants run as sweep cells. The K, splitter and spacing ablations
// build their one instance before the sweep and share it across the
// variants; each easy fraction is an instance of its own.
#include <benchmark/benchmark.h>

#include "bench_support/sweep.hpp"
#include "bench_support/table.hpp"
#include "bench_support/workloads.hpp"
#include "deltacolor.hpp"

namespace {

using namespace deltacolor;
using namespace deltacolor::bench;

void ablate_subclique_count() {
  std::cout << "K (sub-cliques per clique) at Delta = 63, paper epsilon:\n";
  const std::vector<int> ks = {7, 14, 21, 28};
  const auto inst = hard_instance(48, 63, 5);
  SweepDriver driver;
  const auto rows = driver.run<DeltaColoringResult>(
      ks.size(), [&](std::size_t i, EngineOptions engine) {
        DeltaColoringOptions opt;  // paper epsilon = 1/63
        opt.hard.subclique_count = ks[i];
        opt.hard.scale_for_delta = false;
        opt.engine = engine;
        return delta_color_dense(inst.graph, opt);
      });
  Table t({"K", "delta_H", "r_H", "ratio", "lemma11", "fallbacks", "valid"});
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const auto& st = rows[i].hard_stats;
    t.row(ks[i], st.heg_min_degree, st.heg_rank, st.heg_ratio,
          verdict(st.lemma11_ok), st.split_fallbacks,
          rows[i].valid ? "yes" : "NO");
  }
  t.print();
  std::cout << "(Smaller K gives bigger sub-cliques, hence more slack in\n"
             "Lemma 11 — the paper's 28 is the *largest* K whose real-\n"
             "valued margin closes at epsilon = 1/63.)\n\n";
}

void ablate_splitter() {
  std::cout << "splitter (levels, segment) at Delta = 32:\n";
  struct Cell {
    int levels;
    int segment;
  };
  std::vector<Cell> cells;
  for (const int levels : {1, 2})
    for (const int segment : {16, 100, 400}) cells.push_back({levels, segment});
  const auto inst = hard_instance(64, 32, 6);
  SweepDriver driver;
  const auto rows = driver.run<DeltaColoringResult>(
      cells.size(), [&](std::size_t i, EngineOptions engine) {
        DeltaColoringOptions opt = scaled_options(32);
        opt.hard.split_levels = cells[i].levels;
        opt.hard.split_segment_length = cells[i].segment;
        // Fix K = 16 explicitly: the auto-scaling would both shrink K and
        // downgrade to one splitting level, hiding the `levels` dimension.
        opt.hard.subclique_count = 16;
        opt.hard.scale_for_delta = false;
        opt.engine = engine;
        return delta_color_dense(inst.graph, opt);
      });
  Table t({"levels", "segment", "minOut(F3)", "maxIn(F3)", "fallbacks",
           "split rounds", "valid"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& st = rows[i].hard_stats;
    t.row(cells[i].levels, cells[i].segment, st.min_outgoing_f3,
          st.max_incoming_f3, st.split_fallbacks,
          rows[i].ledger.phase_total("phase2-split"),
          rows[i].valid ? "yes" : "NO");
  }
  t.print();
  std::cout << "\n";
}

void ablate_easy_fraction() {
  std::cout << "easy fraction at Delta = 16 (work shifting from Algorithm 2 "
               "to Algorithm 3):\n";
  const std::vector<double> fractions = {0.0, 0.1, 0.3, 0.6, 1.0};
  SweepDriver driver;
  const auto rows = driver.run<DeltaColoringResult>(
      fractions.size(), [&](std::size_t i, EngineOptions engine) {
        const auto inst = mixed_instance(64, 16, fractions[i], 8);
        auto opt = scaled_options(16);
        opt.engine = engine;
        return delta_color_dense(inst.graph, opt);
      });
  Table t({"easy%", "hard", "easy", "typeI", "typeII", "triads",
           "alg2 rounds", "alg3 rounds", "valid"});
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    const auto& res = rows[i];
    const auto& lg = res.ledger;
    const auto alg2 = lg.phase_total("phase1-matching") +
                      lg.phase_total("phase1-heg") +
                      lg.phase_total("phase2-split") +
                      lg.phase_total("phase3-triads") +
                      lg.phase_total("phase4a-pairs") +
                      lg.phase_total("phase4b-rest");
    const auto alg3 = lg.phase_total("easy-ruling") +
                      lg.phase_total("easy-bfs") +
                      lg.phase_total("easy-layers") +
                      lg.phase_total("easy-loopholes");
    t.row(static_cast<int>(fractions[i] * 100), res.num_hard, res.num_easy,
          res.hard_stats.type1, res.hard_stats.type2,
          res.hard_stats.num_triads, alg2, alg3, res.valid ? "yes" : "NO");
  }
  t.print();
  std::cout << "\n";
}

void ablate_tnode_spacing() {
  std::cout << "randomized T-node spacing b at Delta = 16:\n";
  const std::vector<int> spacings = {0, 1, 2, 3};
  const auto inst = hard_instance(128, 16, 9);
  SweepDriver driver;
  const auto rows = driver.run<RandomizedResult>(
      spacings.size(), [&](std::size_t i, EngineOptions engine) {
        RandomizedOptions opt = scaled_randomized_options(16, 17);
        opt.spacing = spacings[i];
        opt.engine = engine;
        return randomized_delta_color(inst.graph, opt);
      });
  Table t({"b", "tnodes", "failed", "components", "maxCompSize", "valid"});
  for (std::size_t i = 0; i < spacings.size(); ++i) {
    const auto& res = rows[i];
    t.row(spacings[i], res.stats.tnodes_placed, res.stats.failed_cliques,
          res.stats.components, res.stats.max_component_vertices,
          res.valid ? "yes" : "NO");
  }
  t.print();
  std::cout << "(Larger b suppresses useless vertices but blocks whole\n"
               "cliques from pairing; coverage layers absorb the failures\n"
               "either way.)\n";
}

void BM_AblationPipeline(benchmark::State& state) {
  const auto inst = hard_instance(64, 16, 9);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        delta_color_dense(inst.graph, scaled_options(16)).color.data());
}
BENCHMARK(BM_AblationPipeline)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  banner("E12", "ablations of the paper's fixed constants");
  ablate_subclique_count();
  ablate_splitter();
  ablate_easy_fraction();
  ablate_tnode_spacing();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
