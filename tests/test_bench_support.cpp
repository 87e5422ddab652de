// Tests for the bench-support layer added for the concurrent experiment
// suite: the keyed InstanceCache (hit/miss accounting, identity of cached
// pointers, single-flight generation, graph-build charging) and the
// SweepDriver (index-addressed determinism serial vs parallel, ledger
// merging, engine serialization under a parallel sweep, exception order).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bench_support/instance_cache.hpp"
#include "bench_support/sweep.hpp"
#include "bench_support/workloads.hpp"
#include "common/thread_pool.hpp"
#include "local/ledger.hpp"

namespace deltacolor::bench {
namespace {

TEST(InstanceCache, HitsShareMissesBuild) {
  InstanceCache& cache = InstanceCache::global();
  cache.clear();
  const auto before = cache.stats();

  RoundLedger ledger;
  const auto a = cache.regular(64, 3, 5, &ledger);
  const auto b = cache.regular(64, 3, 5, &ledger);
  EXPECT_EQ(a.get(), b.get()) << "equal keys must share one instance";
  // The miss charged its generation time to the builder's ledger.
  EXPECT_GE(ledger.phase_time("graph-build"), 0.0);

  const auto c = cache.regular(64, 3, 6, &ledger);  // different seed
  const auto d = cache.regular(66, 3, 5, &ledger);  // different n
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a.get(), d.get());

  const auto after = cache.stats();
  EXPECT_EQ(after.misses - before.misses, 3u);
  EXPECT_EQ(after.hits - before.hits, 1u);
}

TEST(InstanceCache, KeysCoverEveryBlowupOption) {
  InstanceCache& cache = InstanceCache::global();
  cache.clear();
  CliqueInstanceOptions opt;
  opt.num_cliques = 8;
  opt.delta = 8;
  opt.clique_size = 8;
  opt.seed = 3;
  const auto base = cache.blowup(opt);
  auto easy = opt;
  easy.easy_fraction = 0.5;
  auto unshuffled = opt;
  unshuffled.shuffle_ids = false;
  EXPECT_NE(base.get(), cache.blowup(easy).get());
  EXPECT_NE(base.get(), cache.blowup(unshuffled).get());
  EXPECT_EQ(base.get(), cache.blowup(opt).get());
}

TEST(InstanceCache, ClearDropsEntriesButKeepsOutstandingPointers) {
  InstanceCache& cache = InstanceCache::global();
  cache.clear();
  const auto held = cache.regular(32, 3, 9);
  const NodeId n = held->num_nodes();
  cache.clear();
  EXPECT_EQ(held->num_nodes(), n) << "outstanding pointers stay valid";
  const auto rebuilt = cache.regular(32, 3, 9);
  EXPECT_NE(held.get(), rebuilt.get()) << "clear() forces regeneration";
}

TEST(InstanceCache, SingleFlightUnderConcurrency) {
  InstanceCache& cache = InstanceCache::global();
  cache.clear();
  const auto before = cache.stats();
  constexpr int kWorkers = 4;
  std::vector<std::shared_ptr<const Graph>> got(kWorkers);
  ThreadPool::shared(kWorkers).for_range(
      0, kWorkers, [&](int w, std::size_t, std::size_t) {
        got[w] = cache.regular(256, 3, 11);
      });
  for (int w = 1; w < kWorkers; ++w) EXPECT_EQ(got[0].get(), got[w].get());
  const auto after = cache.stats();
  EXPECT_EQ(after.misses - before.misses, 1u)
      << "concurrent requesters must coalesce onto one generation";
}

TEST(InstanceCache, ThrowingGeneratorDoesNotWedgeTheSlot) {
  // Regression: with the old std::once_flag latch, a generator throwing
  // inside the single-flight section left concurrent waiters blocked
  // forever (libstdc++ pthread_once). The slot must instead return to
  // empty so the next requester rebuilds.
  InstanceCache& cache = InstanceCache::global();
  cache.clear();
  std::atomic<int> builds{0};
  const auto failing = [&]() -> Graph {
    builds.fetch_add(1);
    throw std::runtime_error("generator failed");
  };
  EXPECT_THROW((void)cache.custom_graph("flaky", failing),
               std::runtime_error);
  // Second call must attempt a fresh build (not hang, not serve a
  // half-built value) and succeed with a working generator.
  const auto built = cache.custom_graph("flaky", [&]() {
    builds.fetch_add(1);
    return Graph(2, {{0, 1}});
  });
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->num_nodes(), 2u);
  EXPECT_EQ(builds.load(), 2) << "one failed build + one rebuild";
  // And the slot is now ready: further calls are hits, generator unused.
  const auto again = cache.custom_graph(
      "flaky", [&]() -> Graph { throw std::logic_error("must not run"); });
  EXPECT_EQ(again.get(), built.get());
}

TEST(InstanceCache, ThrowingGeneratorReleasesConcurrentWaiters) {
  InstanceCache& cache = InstanceCache::global();
  cache.clear();
  constexpr int kWorkers = 4;
  std::atomic<int> failures{0};
  std::vector<std::shared_ptr<const Graph>> got(kWorkers);
  // Every worker requests the same key with a generator that throws on
  // the first build. Exactly one requester sees the exception; the rest
  // either rebuild (their generator succeeds after the failure) or share
  // the rebuilt value. Nobody deadlocks.
  std::atomic<bool> failed_once{false};
  ThreadPool::shared(kWorkers).for_range(
      0, kWorkers, [&](int w, std::size_t, std::size_t) {
        try {
          got[w] = cache.custom_graph("contended-flaky", [&]() -> Graph {
            if (!failed_once.exchange(true))
              throw std::runtime_error("first build fails");
            return Graph(3, {{0, 1}, {1, 2}});
          });
        } catch (const std::runtime_error&) {
          failures.fetch_add(1);
        }
      });
  EXPECT_EQ(failures.load(), 1)
      << "the exception reaches only the requester that ran the generator";
  const Graph* value = nullptr;
  for (int w = 0; w < kWorkers; ++w) {
    if (got[w] == nullptr) continue;
    if (value == nullptr) value = got[w].get();
    EXPECT_EQ(got[w].get(), value) << "survivors share one instance";
  }
  ASSERT_NE(value, nullptr) << "at least one requester rebuilt";
}

TEST(SweepDriver, RowsAreIndexAddressed) {
  SweepOptions opt;
  opt.workers = 1;
  SweepDriver driver(opt);
  const auto rows = driver.run<int>(
      8, [](std::size_t i, CellContext&) { return static_cast<int>(i * i); });
  ASSERT_EQ(rows.size(), 8u);
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(rows[i], static_cast<int>(i * i));
}

TEST(SweepDriver, ParallelMatchesSerial) {
  const auto cell = [](std::size_t i, CellContext& ctx) {
    ctx.ledger().charge("work", static_cast<std::int64_t>(i) + 1);
    return static_cast<int>(3 * i + 1);
  };
  SweepOptions serial_opt;
  serial_opt.workers = 1;
  SweepDriver serial(serial_opt);
  const auto want = serial.run<int>(16, cell);

  SweepOptions par_opt;
  par_opt.workers = 4;
  SweepDriver parallel(par_opt);
  const auto got = parallel.run<int>(16, cell);

  EXPECT_EQ(got, want);
  // Round counts merge identically regardless of schedule: 1 + 2 + ... + 16.
  EXPECT_EQ(serial.ledger().phase_total("work"), 136);
  EXPECT_EQ(parallel.ledger().phase_total("work"), 136);
}

TEST(SweepDriver, ParallelSweepSerializesCellEngines) {
  SweepOptions opt;
  opt.workers = 4;
  opt.cell_engine = EngineOptions{8};
  SweepDriver driver(opt);
  driver.run<int>(8, [&](std::size_t, CellContext& ctx) {
    // One layer parallelizes, never both: the sweep owns the pool, so the
    // cell's engine must come back serial.
    EXPECT_EQ(ctx.engine().num_threads, 1);
    return 0;
  });

  SweepOptions serial_opt = opt;
  serial_opt.workers = 1;
  SweepDriver serial(serial_opt);
  serial.run<int>(2, [&](std::size_t, CellContext& ctx) {
    EXPECT_EQ(ctx.engine().num_threads, 8)
        << "a serial sweep passes the caller's engine through";
    return 0;
  });
}

TEST(SweepDriver, LowestIndexExceptionWins) {
  for (const int workers : {1, 4}) {
    SweepOptions opt;
    opt.workers = workers;
    SweepDriver driver(opt);
    try {
      driver.run<int>(12, [](std::size_t i, CellContext&) -> int {
        if (i == 3 || i == 9) throw std::runtime_error("cell " +
                                                       std::to_string(i));
        return 0;
      });
      FAIL() << "expected the cell exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell 3");
    }
  }
}

TEST(SweepDriver, CachedCellsReportHitsAndSeparatePhases) {
  InstanceCache::global().clear();
  SweepOptions opt;
  opt.workers = 1;
  SweepDriver driver(opt);
  const auto rows =
      driver.run<NodeId>(4, [](std::size_t, CellContext& ctx) {
        return cached_regular(128, 3, 21, &ctx.ledger())->num_nodes();
      });
  for (const NodeId n : rows) EXPECT_EQ(n, 128u);
  // One miss builds, three hits share; the merged ledger keeps generation
  // ("graph-build") and cell time ("cell") as separate phases.
  EXPECT_GE(driver.ledger().phase_time("cell"), 0.0);
  EXPECT_NE(driver.report().find("cache_hits=3"), std::string::npos)
      << driver.report();
  EXPECT_NE(driver.report().find("cache_misses=1"), std::string::npos);
}

}  // namespace
}  // namespace deltacolor::bench
