// E7 — the complexity-landscape comparison motivating the paper (Figure 1
// and Section 1.1): Delta-coloring vs the greedy (Delta+1) regime vs the
// prior layered approach vs the centralized ground truth.
//
//  * greedy uses one extra color and finishes in log*-tier rounds;
//  * the layered baseline needs loopholes: it STALLS on hard instances
//    and needs ~diameter rounds on ring-shaped easy instances;
//  * the paper's deterministic algorithm handles hard instances in
//    O(log n)-tier rounds with exactly Delta colors;
//  * the randomized algorithm does the same in fewer n-dependent rounds;
//  * Brooks (centralized) is the sequential reference.
//
// Every algorithm row is one SweepDriver cell; all five share the cached
// instance, so the blow-up / ring is generated once per kind instead of
// once per algorithm.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "bench_support/sweep.hpp"
#include "bench_support/table.hpp"
#include "bench_support/workloads.hpp"
#include "deltacolor.hpp"

namespace {

using namespace deltacolor;
using namespace deltacolor::bench;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void run_tables() {
  banner("E7", "head-to-head: who colors what, with how many colors, in "
               "how many rounds");

  const char* algorithms[] = {"greedy", "layered", "deterministic",
                              "randomized", "brooks"};
  constexpr std::size_t kAlgorithms = 5;

  struct Cell {
    const char* kind;
    std::size_t algorithm;
  };
  std::vector<Cell> cells;
  for (const char* kind : {"hard", "ring"})
    for (std::size_t a = 0; a < kAlgorithms; ++a) cells.push_back({kind, a});

  struct Row {
    std::string label;
    int colors = 0;
    bool has_rounds = true;
    double ms = 0;
    std::string outcome;
    bool ok = false;
    NodeId n = 0;
    RoundLedger ledger;
  };
  SweepDriver driver;
  const auto rows = driver.run<Row>(cells.size(), [&](std::size_t i,
                                                      CellContext& ctx) {
    const Cell& c = cells[i];
    const bool hard = std::string(c.kind) == "hard";
    const int delta = hard ? 16 : 8;
    const auto inst = hard ? cached_hard(128, delta, 17, &ctx.ledger())
                           : cached_ring(128, delta, 17, &ctx.ledger());
    const Graph& g = inst->graph;
    Row row;
    row.n = g.num_nodes();
    switch (c.algorithm) {
      case 0: {  // greedy Delta+1
        LocalContext lctx(row.ledger, ctx.engine());
        const auto t0 = std::chrono::steady_clock::now();
        const auto color = greedy_delta_plus_one(g, lctx);
        row.ms = ms_since(t0);
        row.ok = is_proper_coloring(g, color, delta + 1);
        row.label = "greedy (Delta+1)";
        row.colors = check_coloring(g, color).colors_used;
        row.outcome = row.ok ? "valid (Delta+1)" : "INVALID";
        break;
      }
      case 1: {  // layered baseline
        AcdParams p;
        p.epsilon = std::max(kAcdEpsilon, 2.5 / delta);
        RoundLedger tmp;
        const Acd acd = compute_acd(g, tmp, p);
        const auto lps = find_loopholes_dense(g, acd, tmp);
        LocalContext lctx(row.ledger, ctx.engine());
        const auto t0 = std::chrono::steady_clock::now();
        const auto res = layered_loophole_coloring(g, lps, lctx);
        row.ms = ms_since(t0);
        row.ok = res.success;
        row.label = "layered (prior-style)";
        row.colors =
            res.success ? check_coloring(g, res.color).colors_used : 0;
        row.outcome =
            res.success ? "valid (Delta)" : "STALLS (no loopholes)";
        break;
      }
      case 2: {  // deterministic (Theorem 1)
        auto opt = scaled_options(delta);
        opt.engine = ctx.engine();
        const auto t0 = std::chrono::steady_clock::now();
        const auto res = delta_color_dense(g, opt);
        row.ms = ms_since(t0);
        row.ok = res.valid;
        row.label = "deterministic (Thm 1)";
        row.colors = check_coloring(g, res.color).colors_used;
        row.outcome = res.valid ? "valid (Delta)" : "INVALID";
        row.ledger = res.ledger;
        break;
      }
      case 3: {  // randomized (Theorem 2)
        auto opt = scaled_randomized_options(delta, 7);
        opt.engine = ctx.engine();
        const auto t0 = std::chrono::steady_clock::now();
        const auto res = randomized_delta_color(g, opt);
        row.ms = ms_since(t0);
        row.ok = res.valid;
        row.label = "randomized (Thm 2)";
        row.colors = check_coloring(g, res.color).colors_used;
        row.outcome = res.valid ? "valid (Delta)" : "INVALID";
        row.ledger = res.ledger;
        break;
      }
      case 4: {  // Brooks, centralized
        const auto t0 = std::chrono::steady_clock::now();
        const auto res = brooks_coloring(g);
        row.ms = ms_since(t0);
        row.ok = res.success;
        row.has_rounds = false;
        row.label = "Brooks (centralized)";
        row.colors =
            res.success ? check_coloring(g, res.color).colors_used : 0;
        row.outcome = res.success ? "valid (Delta)" : "exception";
        break;
      }
    }
    return row;
  });

  std::size_t at = 0;
  for (const char* kind : {"hard", "ring"}) {
    const bool hard = std::string(kind) == "hard";
    const int delta = hard ? 16 : 8;
    Table t({"algorithm", "colors", "rounds", "wall(ms)", "outcome"});
    NodeId n = 0;
    for (std::size_t a = 0; a < kAlgorithms; ++a, ++at) {
      const Row& row = rows[at];
      n = row.n;
      if (row.has_rounds)
        t.row(row.label, row.colors, row.ledger.total(), row.ms,
              row.outcome);
      else
        t.row(row.label, row.colors, "-", row.ms, row.outcome);
      if (cells[at].algorithm != 4)  // Brooks has no LOCAL rounds to emit
        BenchJson("E7")
            .field("instance", kind)
            .field("n", row.n)
            .field("algorithm", algorithms[a])
            .field("valid", row.ok)
            .field("wall_ms", row.ms)
            .ledger(row.ledger)
            .print();
    }
    std::cout << (hard ? "All-hard blow-up instance" : "Easy clique ring")
              << " (n = " << n << ", Delta = " << delta << "):\n";
    t.print();
    std::cout << "\n";
  }
  std::cout << driver.report() << "\n";

  // The round engine by worker count on the message-passing color-trial
  // workload (the engine's hot path, in live rounds). Serial on
  // purpose — this section measures engine wall-clock, so cells must not
  // share the machine.
  banner("E7b", "round engine by worker count (color trials, hard "
                "blow-up)");
  {
    const auto inst = cached_hard(512, 16, 17);
    const Graph& g = inst->graph;
    Table t({"engine", "rounds", "wall(ms)", "valid"});
    const std::pair<const char*, EngineOptions> configs[] = {
        {"serial", {1}}, {"4 workers", {4}}};
    for (const auto& [name, opts] : configs) {
      RoundLedger ledger;
      const auto t0 = std::chrono::steady_clock::now();
      const auto color =
          color_trial_message_passing(g, 17, ledger, "trial", opts);
      const double ms = ms_since(t0);
      const bool ok = is_proper_coloring(g, color, g.max_degree() + 1);
      t.row(name, ledger.total(), ms, ok ? "yes" : "NO");
      BenchJson("E7")
          .field("instance", "hard")
          .field("n", g.num_nodes())
          .field("algorithm", std::string("color-trial-mp ") + name)
          .field("valid", ok)
          .field("wall_ms", ms)
          .ledger(ledger)
          .print();
    }
    t.print();
  }
}

void BM_Greedy(benchmark::State& state) {
  const auto inst = cached_hard(128, 16, 17);
  for (auto _ : state) {
    RoundLedger ledger;
    LocalContext lctx(ledger);
    benchmark::DoNotOptimize(greedy_delta_plus_one(inst->graph, lctx).data());
  }
}
BENCHMARK(BM_Greedy)->Unit(benchmark::kMillisecond);

void BM_Deterministic(benchmark::State& state) {
  const auto inst = cached_hard(128, 16, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        delta_color_dense(inst->graph, scaled_options(16)).color.data());
  }
}
BENCHMARK(BM_Deterministic)->Unit(benchmark::kMillisecond);

void BM_Randomized(benchmark::State& state) {
  const auto inst = cached_hard(128, 16, 17);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        randomized_delta_color(inst->graph,
                               scaled_randomized_options(16, ++seed))
            .color.data());
  }
}
BENCHMARK(BM_Randomized)->Unit(benchmark::kMillisecond);

void BM_Brooks(benchmark::State& state) {
  const auto inst = cached_hard(128, 16, 17);
  for (auto _ : state)
    benchmark::DoNotOptimize(brooks_coloring(inst->graph).color.data());
}
BENCHMARK(BM_Brooks)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
