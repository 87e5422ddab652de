// E11 — the subroutine complexities entering Lemma 18's decomposition.
// T_MM is det's own Panconesi-Rizzi matcher, O(Delta + log* n) as in the
// paper. T_{deg+1} and MIS are class sweeps over a Linial + KW schedule,
// (Delta log Delta + log* n)-shaped, and ruling sets take O(log Delta +
// log* n) (the paper's black boxes are O(Delta + log* n) /
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
  banner("E11", "subroutine round complexities (flat in n, grow with Delta)");

  struct Instance {
    int cliques;
    int delta;
  };
  std::vector<Instance> keys;
  for (int cliques = 32; cliques <= 1024; cliques *= 4)
    keys.push_back({cliques, 16});
  const std::size_t delta_section = keys.size();
  for (const int delta : {8, 16, 32, 63}) keys.push_back({64, delta});

  // Every (instance, subroutine) pair is one sweep cell: cell i runs
  // subroutine i % kNumSubroutines on instance i / kNumSubroutines. The
  // five columns of a table row share the instance, so each instance is
  // built once, concurrently, before the measured sweep.
  SweepDriver driver;
  const auto instances = driver.run<CliqueInstance>(
      keys.size(), [&](std::size_t k, EngineOptions) {
        return hard_instance(keys[k].cliques, keys[k].delta, 3);
      });
  const auto rounds = driver.run<std::int64_t>(
      keys.size() * kNumSubroutines, [&](std::size_t i, EngineOptions engine) {
        AlgorithmRequest req;
        req.engine = engine;
        return run_registered(kSubroutines[i % kNumSubroutines],
                              instances[i / kNumSubroutines].graph, req)
            .ledger.total();
      });

  {
    Table t({"n", "linial", "deg+1", "mis", "matching", "ruling"});
    for (std::size_t k = 0; k < delta_section; ++k) {
      const std::int64_t* r = &rounds[k * kNumSubroutines];
      t.row(instances[k].graph.num_nodes(), r[0], r[1], r[2], r[3], r[4]);
    }
    std::cout << "fixed Delta = 16, growing n:\n";
    t.print();
  }
  {
    Table t({"Delta", "n", "linial", "deg+1", "mis", "matching", "ruling"});
    for (std::size_t k = delta_section; k < keys.size(); ++k) {
      const std::int64_t* r = &rounds[k * kNumSubroutines];
      t.row(keys[k].delta, instances[k].graph.num_nodes(), r[0], r[1], r[2],
            r[3], r[4]);
    }
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
  const auto inst = hard_instance(512, 16, 3);
  const Graph& g = inst.graph;
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
  const auto inst = hard_instance(256, 16, 3);
  for (auto _ : state) {
    RoundLedger l;
    LocalContext lctx(l);
    benchmark::DoNotOptimize(linial_coloring(inst.graph, lctx).color.data());
  }
}
BENCHMARK(BM_Linial)->Unit(benchmark::kMillisecond);

void BM_MaximalMatching(benchmark::State& state) {
  const auto inst = hard_instance(256, 16, 3);
  for (auto _ : state) {
    RoundLedger l;
    LocalContext lctx(l);
    benchmark::DoNotOptimize(
        maximal_matching_pr(inst.graph, lctx).size());
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
