// E6 — Theorem 2: the randomized algorithm Delta-colors dense
// constant-degree graphs in O(Delta + log log n) rounds w.h.p.; the
// shattered components have size poly(Delta) * log n.
//
// Sweep n at fixed Delta; report total rounds, the post-shattering
// component statistics, and the (weak at laptop scale) log log n shape of
// the n-dependent part.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string_view>
#include <thread>

#include "bench_support/sweep.hpp"
#include "bench_support/table.hpp"
#include "bench_support/workloads.hpp"
#include "common/stats.hpp"
#include "deltacolor.hpp"

namespace {

using namespace deltacolor;
using namespace deltacolor::bench;

void run_tables() {
  banner("E6",
         "Theorem 2: randomized Delta-coloring; shattering into "
         "poly(Delta) log n components");
  std::vector<int> clique_grid;
  for (int cliques = 32; cliques <= 2048; cliques *= 2)
    clique_grid.push_back(cliques);

  struct Row {
    NodeId n = 0;
    bool valid = false;
    std::int64_t tnodes = 0;
    std::int64_t failed = 0;
    std::int64_t components = 0;
    std::int64_t max_comp_vertices = 0;
    std::int64_t max_comp_rounds = 0;
    RoundLedger ledger;
  };
  SweepDriver driver;
  const auto rows = driver.run<Row>(
      clique_grid.size(),
      [&](std::size_t i, CellContext& ctx) {
        const int cliques = clique_grid[i];
        const auto inst = cached_hard(cliques, 16, 21, &ctx.ledger());
        auto opt = scaled_randomized_options(16, 1000 + cliques);
        opt.engine = ctx.engine();
        const auto res = randomized_delta_color(inst->graph, opt);
        Row row;
        row.n = inst->graph.num_nodes();
        row.valid = res.valid;
        row.tnodes = res.stats.tnodes_placed;
        row.failed = res.stats.failed_cliques;
        row.components = res.stats.components;
        row.max_comp_vertices = res.stats.max_component_vertices;
        row.max_comp_rounds = res.stats.max_component_rounds;
        row.ledger = res.ledger;
        return row;
      });

  Table t({"n", "rounds", "tnodes", "failed", "components", "maxCompSize",
           "maxCompRounds", "valid"});
  std::vector<double> ns, comp_sizes;
  for (const Row& row : rows) {
    BenchJson("E6")
        .field("n", row.n)
        .field("valid", row.valid)
        .ledger(row.ledger)
        .print();
    t.row(row.n, row.ledger.total(), row.tnodes, row.failed, row.components,
          row.max_comp_vertices, row.max_comp_rounds,
          row.valid ? "yes" : "NO");
    ns.push_back(row.n);
    comp_sizes.push_back(static_cast<double>(row.max_comp_vertices));
  }
  t.print();
  const LinearFit fit = fit_log(ns, comp_sizes);
  std::cout << "fit maxCompSize ~ " << fit.intercept << " + " << fit.slope
            << " * log2(n)   (r2 = " << fit.r2
            << ") — the shattering lemma's poly(Delta) log n shape\n\n";

  // At the default coverage depth the layers absorb everything; shrinking
  // the depth exposes the actual shattered components and their
  // log-n-bounded growth.
  std::cout << "coverage-depth sweep (the default depth 3 usually covers "
               "the whole graph):\n";
  struct DepthCell {
    int depth;
    int cliques;
  };
  std::vector<DepthCell> depth_cells;
  for (const int depth : {1, 2, 3})
    for (const int cliques : {128, 512, 2048})
      depth_cells.push_back({depth, cliques});
  struct DepthRow {
    NodeId n = 0;
    RandomizedResult res;
  };
  SweepDriver depth_driver;
  const auto depth_rows = depth_driver.run<DepthRow>(
      depth_cells.size(), [&](std::size_t i, CellContext& ctx) {
        const DepthCell& c = depth_cells[i];
        const auto inst = cached_hard(c.cliques, 16, 21, &ctx.ledger());
        RandomizedOptions opt = scaled_randomized_options(16, 777);
        opt.layer_depth = c.depth;
        opt.placement_rounds = 2;  // weaker placement: more failures
        opt.engine = ctx.engine();
        DepthRow row;
        row.res = randomized_delta_color(inst->graph, opt);
        row.n = inst->graph.num_nodes();
        return row;
      });
  Table t2({"layer_depth", "n", "components", "maxCompSize",
            "maxCompRounds", "valid"});
  for (std::size_t i = 0; i < depth_cells.size(); ++i) {
    const auto& res = depth_rows[i].res;
    t2.row(depth_cells[i].depth, depth_rows[i].n, res.stats.components,
           res.stats.max_component_vertices, res.stats.max_component_rounds,
           res.valid ? "yes" : "NO");
  }
  t2.print();
  std::cout << driver.report() << "\n";
}

// Execution-engine head-to-head on the largest seed workload: the
// color-trial protocol (live rounds: only undecided nodes step) serial vs
// the parallel partitioner, against the serial row. Rounds are identical by
// construction (the engine is deterministic); wall-clock is what changes.
void run_engine_tables(bool quick = false) {
  banner("E6b", "round engine by worker count (color trials, largest "
                "workload)");
  // --quick (CI perf-smoke): a quarter-size workload and single reps keep
  // the job under a minute while exercising every engine configuration.
  const auto inst = cached_hard(quick ? 512 : 2048, 16, 21);
  const Graph& g = inst->graph;
  std::cout << "n = " << g.num_nodes() << ", Delta = " << g.max_degree()
            << "\n";
  Table t({"engine", "workers", "rounds", "wall(ms)", "speedup", "valid"});
  double baseline_ms = 0.0;
  std::vector<Color> baseline_color;
  struct Config {
    const char* name;
    EngineOptions opts;
  };
  const Config configs[] = {{"serial", {1}}, {"4 workers", {4}}};
  for (const Config& cfg : configs) {
    RoundLedger ledger;
    const auto t0 = std::chrono::steady_clock::now();
    const auto color =
        color_trial_message_passing(g, 5, ledger, "trial", cfg.opts);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (baseline_color.empty()) {  // the serial row
      baseline_ms = ms;
      baseline_color = color;
    }
    const bool valid = is_proper_coloring(g, color, g.max_degree() + 1) &&
                       color == baseline_color;
    t.row(cfg.name, cfg.opts.num_threads, ledger.total(), ms,
          baseline_ms / std::max(ms, 1e-9), valid ? "yes" : "NO");
    BenchJson("E6")
        .field("workload", "color-trial-engine")
        .field("engine", cfg.name)
        .field("workers", cfg.opts.num_threads)
        .field("n", g.num_nodes())
        .field("valid", valid)
        .field("wall_ms", ms)
        .field("speedup_vs_serial", baseline_ms / std::max(ms, 1e-9))
        .ledger(ledger)
        .print();
  }
  t.print();
  std::cout << "speedup is vs the serial row; colorings are asserted "
               "bit-identical across all rows\n";

  // The composed Theorem 2 pipeline under the worker knob: EngineOptions
  // flow through LocalContext into every nested subroutine (shattered
  // components included), so this measures the paper pipeline, not a demo
  // protocol. Bit-identical colorings asserted across worker counts.
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "\ncomposed randomized pipeline by worker count (hardware "
               "threads = "
            << hw << "):\n";
  Table t3({"engine", "workers", "rounds", "wall(ms)", "speedup", "valid"});
  double pipeline_baseline_ms = 0.0;
  std::vector<Color> pipeline_baseline_color;
  for (const Config& cfg : configs) {
    AlgorithmRequest req;
    req.seed = 21;
    req.engine = cfg.opts;
    // Best-of-3 to keep single-run noise below the worker delta.
    double ms = 0.0;
    AlgorithmResult res;
    for (int rep = 0; rep < (quick ? 1 : 3); ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      res = run_registered("rand", g, req);
      const double rep_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
      if (rep == 0 || rep_ms < ms) ms = rep_ms;
    }
    if (pipeline_baseline_color.empty()) {
      pipeline_baseline_ms = ms;
      pipeline_baseline_color = res.color;
    }
    const bool valid = res.ok && res.color == pipeline_baseline_color;
    t3.row(cfg.name, cfg.opts.num_threads, res.ledger.total(), ms,
           pipeline_baseline_ms / std::max(ms, 1e-9), valid ? "yes" : "NO");
    BenchJson("E6")
        .field("workload", "composed-rand-pipeline")
        .field("engine", cfg.name)
        .field("workers", cfg.opts.num_threads)
        .field("hw_threads", static_cast<std::int64_t>(hw))
        .field("n", g.num_nodes())
        .field("valid", valid)
        .field("wall_ms", ms)
        .field("speedup_vs_serial",
               pipeline_baseline_ms / std::max(ms, 1e-9))
        .ledger(res.ledger)
        .print();
  }
  t3.print();
  std::cout << "the 4-worker row can only beat serial when hardware threads "
               "> 1\n";
}

void BM_RandomizedColoring(benchmark::State& state) {
  const int cliques = static_cast<int>(state.range(0));
  const auto inst = cached_hard(cliques, 16, 21);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto res = randomized_delta_color(
        inst->graph, scaled_randomized_options(16, ++seed));
    benchmark::DoNotOptimize(res.color.data());
    state.counters["rounds"] = static_cast<double>(res.ledger.total());
  }
  state.counters["n"] = inst->graph.num_nodes();
}
BENCHMARK(BM_RandomizedColoring)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      // Perf-smoke mode: engine head-to-head only, reduced workload, no
      // google-benchmark sweeps. Same BENCH_JSON schema as the full run.
      run_engine_tables(true);
      return 0;
    }
  }
  run_tables();
  run_engine_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
