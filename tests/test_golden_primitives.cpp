// Golden determinism tests for every algorithm in the shared registry:
//  (a) the result on a fixed instance hashes to a pinned golden value —
//      any change to RNG streams, round accounting, or schedules that
//      leaks into results fails loudly here;
//  (b) results are bit-identical across worker counts ({1, 8}) — the
//      SyncRunner fidelity contract, end to end through LocalContext for
//      the composed pipelines, not just leaf primitives.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "bench_support/workloads.hpp"
#include "registry/registry.hpp"

namespace deltacolor {
namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ULL;
}

/// Order-sensitive hash of everything observable in a result: the
/// coloring, the set, the total round charge, and the palette.
std::uint64_t result_hash(const AlgorithmResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Color c : r.color) h = fnv(h, static_cast<std::uint64_t>(c) + 1);
  for (const bool b : r.in_set) h = fnv(h, b ? 2 : 1);
  h = fnv(h, static_cast<std::uint64_t>(r.ledger.total()));
  h = fnv(h, static_cast<std::uint64_t>(r.palette));
  return h;
}

struct Golden {
  std::string_view name;
  std::uint64_t hash;
};

// Pinned on hard_instance(32, 12, 5) with seed 7, one engine worker.
// Regenerate only for a deliberate semantic change (and say so in the
// commit): run each registry entry with EngineOptions{1} and
// result_hash() above.
constexpr Golden kGolden[] = {
    {"det", 0x0897fb0024162a79ULL},       // rounds=642
    {"rand", 0x93e9117833775cc2ULL},      // rounds=261
    {"brooks", 0x0d66d7ac10fbf341ULL},    // rounds=0 (centralized)
    {"greedy", 0xc01b4867bf7ce67cULL},    // rounds=78
    {"linial", 0x255301b762fc353dULL},    // rounds=0 (ids already < q^2)
    {"trial", 0xa14c1936dc8be643ULL},     // rounds=14
    {"mis", 0x4e91da99ab2d8005ULL},       // rounds=8
    {"mis-det", 0x7fe9a61a12cd7811ULL},   // rounds=78
    {"matching", 0x24480378f2461a1dULL},  // rounds=372
    {"ruling", 0x1b9600473ecd346fULL},    // rounds=9
};

TEST(GoldenPrimitives, RegistryCoversEveryGolden) {
  EXPECT_EQ(algorithm_registry().size(), std::size(kGolden));
  for (const Golden& g : kGolden)
    EXPECT_NE(find_algorithm(g.name), nullptr) << g.name;
}

TEST(GoldenPrimitives, SerialResultsMatchPinnedHashes) {
  const Graph g = bench::hard_instance(32, 12, 5).graph;
  for (const Golden& golden : kGolden) {
    AlgorithmRequest req;
    req.seed = 7;
    req.engine = {1};
    const AlgorithmResult res = bench::run_registered(golden.name, g, req);
    EXPECT_TRUE(res.ok) << golden.name;
    EXPECT_EQ(result_hash(res), golden.hash) << golden.name;
  }
}

TEST(GoldenPrimitives, ResultsBitIdenticalAcrossWorkers) {
  const Graph g = bench::hard_instance(32, 12, 5).graph;
  const EngineOptions engines[] = {{1}, {8}};
  for (const Golden& golden : kGolden) {
    AlgorithmResult baseline;
    bool have_baseline = false;
    for (const EngineOptions& engine : engines) {
      AlgorithmRequest req;
      req.seed = 7;
      req.engine = engine;
      const AlgorithmResult res = bench::run_registered(golden.name, g, req);
      EXPECT_TRUE(res.ok)
          << golden.name << " workers=" << engine.num_threads;
      if (!have_baseline) {
        baseline = res;
        have_baseline = true;
        continue;
      }
      EXPECT_EQ(res.color, baseline.color)
          << golden.name << " workers=" << engine.num_threads;
      EXPECT_EQ(res.in_set, baseline.in_set)
          << golden.name << " workers=" << engine.num_threads;
      EXPECT_EQ(res.ledger.total(), baseline.ledger.total())
          << golden.name << " workers=" << engine.num_threads;
      EXPECT_EQ(res.palette, baseline.palette) << golden.name;
    }
  }
}

}  // namespace
}  // namespace deltacolor
