// E11 — the subroutine complexities entering Lemma 18's decomposition:
// T_MM, T_{deg+1}, MIS, and ruling sets are (Delta^2 + log* n)-shaped in
// our realization (the paper's black boxes are O(Delta + log* n) /
// O~(log^{5/3} n); substitution documented in DESIGN.md). Rounds must be
// essentially flat in n and grow with Delta.
#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "bench_support/sweep.hpp"
#include "bench_support/table.hpp"
#include "bench_support/workloads.hpp"
#include "deltacolor.hpp"

namespace {

using namespace deltacolor;
using namespace deltacolor::bench;

// The subroutine columns, resolved by name from the shared algorithm
// registry (the same catalog `dcolor --list` prints).
constexpr const char* kSubroutines[] = {"linial", "greedy", "mis-det",
                                        "matching", "ruling"};
constexpr std::size_t kNumSubroutines = 5;

void run_tables() {
  banner("E11", "subroutine round complexities (flat in n, ~Delta^2)");

  // Every (instance, subroutine) pair is one sweep cell; the five columns
  // of a table row share the cached instance.
  struct Cell {
    int cliques;
    int delta;
    std::size_t subroutine;
  };
  std::vector<Cell> cells;
  for (int cliques = 32; cliques <= 1024; cliques *= 4)
    for (std::size_t s = 0; s < kNumSubroutines; ++s)
      cells.push_back({cliques, 16, s});
  const std::size_t delta_section = cells.size();
  for (const int delta : {8, 16, 32, 63})
    for (std::size_t s = 0; s < kNumSubroutines; ++s)
      cells.push_back({64, delta, s});

  struct Row {
    NodeId n = 0;
    std::int64_t rounds = 0;
  };
  SweepDriver driver(sweep_options_from_env());
  const auto rows = driver.run<Row>(
      cells.size(), [&](std::size_t i, CellContext& ctx) {
        const Cell& c = cells[i];
        const auto inst =
            cached_hard(c.cliques, c.delta, 3, &ctx.ledger());
        AlgorithmRequest req;
        req.engine = ctx.engine();
        Row row;
        row.n = inst->graph.num_nodes();
        row.rounds = run_registered(kSubroutines[c.subroutine], inst->graph,
                                    req)
                         .ledger.total();
        return row;
      });

  {
    Table t({"n", "linial", "deg+1", "mis", "matching", "ruling"});
    for (std::size_t at = 0; at < delta_section; at += kNumSubroutines)
      t.row(rows[at].n, rows[at].rounds, rows[at + 1].rounds,
            rows[at + 2].rounds, rows[at + 3].rounds, rows[at + 4].rounds);
    std::cout << "fixed Delta = 16, growing n:\n";
    t.print();
  }
  {
    Table t({"Delta", "n", "linial", "deg+1", "mis", "matching", "ruling"});
    for (std::size_t at = delta_section; at < cells.size();
         at += kNumSubroutines)
      t.row(cells[at].delta, rows[at].n, rows[at].rounds,
            rows[at + 1].rounds, rows[at + 2].rounds, rows[at + 3].rounds,
            rows[at + 4].rounds);
    std::cout << "\nfixed clique count, growing Delta:\n";
    t.print();
  }
  std::cout << driver.report() << "\n";
}

// The composed Theorem 1 pipeline (not a demo algorithm) under the worker
// knob: every nested engine stage inherits the request's EngineOptions
// through LocalContext, so `--threads` reaches Linial, KW reduction,
// matching, HEG scheduling, and the deg+1 instances end to end. Colorings
// are asserted bit-identical across worker counts. Serial on purpose: this
// section measures engine wall-clock.
void run_engine_tables() {
  banner("E11b", "composed det pipeline under --threads");
  const auto inst = cached_hard(512, 16, 3);
  const Graph& g = inst->graph;
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "n = " << g.num_nodes() << ", Delta = " << g.max_degree()
            << ", hardware threads = " << hw << "\n";
  struct Config {
    const char* name;
    int workers;
  };
  const Config configs[] = {{"serial", 1}, {"4 workers", 4}};
  Table t({"engine", "workers", "rounds", "wall(ms)", "speedup", "valid"});
  double baseline_ms = 0.0;
  std::vector<Color> baseline_color;
  for (const Config& cfg : configs) {
    AlgorithmRequest req;
    req.engine.num_threads = cfg.workers;
    // Best-of-3: per-run wall clock is single-digit-percent noisy, which
    // would swamp the worker delta.
    double ms = 0.0;
    AlgorithmResult res;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      res = run_registered("det", g, req);
      const double rep_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
      if (rep == 0 || rep_ms < ms) ms = rep_ms;
    }
    if (baseline_color.empty()) {
      baseline_ms = ms;
      baseline_color = res.color;
    }
    const bool valid = res.ok && res.color == baseline_color;
    t.row(cfg.name, cfg.workers, res.ledger.total(), ms,
          baseline_ms / std::max(ms, 1e-9), valid ? "yes" : "NO");
    BenchJson("E11")
        .field("workload", "composed-det-pipeline")
        .field("engine", cfg.name)
        .field("workers", cfg.workers)
        .field("hw_threads", static_cast<std::int64_t>(hw))
        .field("n", g.num_nodes())
        .field("valid", valid)
        .field("wall_ms", ms)
        .field("speedup_vs_serial", baseline_ms / std::max(ms, 1e-9))
        .ledger(res.ledger)
        .print();
  }
  t.print();
  std::cout << "rounds are engine-invariant by construction; colorings are "
               "asserted bit-identical across all rows; worker rows can "
               "only beat serial when hardware threads > 1 (workers share "
               "a cached process-wide pool)\n";
}

void BM_Linial(benchmark::State& state) {
  const auto inst = cached_hard(256, 16, 3);
  for (auto _ : state) {
    RoundLedger l;
    LocalContext lctx(l);
    benchmark::DoNotOptimize(linial_coloring(inst->graph, lctx).color.data());
  }
}
BENCHMARK(BM_Linial)->Unit(benchmark::kMillisecond);

void BM_MaximalMatching(benchmark::State& state) {
  const auto inst = cached_hard(256, 16, 3);
  for (auto _ : state) {
    RoundLedger l;
    LocalContext lctx(l);
    benchmark::DoNotOptimize(
        maximal_matching_deterministic(inst->graph, lctx).size());
  }
}
BENCHMARK(BM_MaximalMatching)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_tables();
  run_engine_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
