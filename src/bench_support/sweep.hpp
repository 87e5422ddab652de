// Concurrent sweep driver for the experiment suite.
//
// A bench is a grid of independent *cells* — (instance, algorithm, seed)
// points — whose results go into a table in grid order. SweepDriver runs
// the cells concurrently on the process-wide ThreadPool and returns the
// rows index-addressed, so output order (and content: every cell is
// seed-deterministic) is identical to the serial loop it replaces.
//
// Determinism and accounting rules (see DESIGN.md §sweep-driver):
//  * Cells are claimed dynamically (atomic counter) for load balance, but
//    each cell writes only rows[i] / ledgers[i]; after the pool joins, the
//    per-cell ledgers are merged in cell-index order. Round counts are
//    schedule-independent; wall-clock phases are measurement metadata.
//  * The engine handed to cells depends on the sweep shape: with a single
//    sweep worker, cells receive the caller's EngineOptions unchanged (the
//    cell itself may parallelize rounds); with multiple sweep workers,
//    cells are forced to num_threads = 1, because ThreadPool::for_range is
//    not reentrant — a cell stepping rounds on the pool that is running the
//    sweep would deadlock-check. One layer parallelizes, never both.
//    Always route the engine through CellContext::engine().
//  * A throwing cell does not tear down the pool: exceptions are captured
//    per cell and the lowest-index one is rethrown after the sweep joins,
//    matching the serial loop's failure order.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <string>
#include <vector>

#include "bench_support/instance_cache.hpp"
#include "common/thread_pool.hpp"
#include "local/ledger.hpp"
#include "local/sync_runner.hpp"

namespace deltacolor::bench {

struct SweepOptions {
  /// Concurrent cells. <= 0 means ThreadPool::default_workers().
  int workers = 0;
  /// Engine options cells receive when the sweep itself is serial.
  EngineOptions cell_engine;
};

/// Per-cell view handed to the cell function.
class CellContext {
 public:
  /// This cell's private ledger. Merged into SweepDriver::ledger() in
  /// cell-index order after the sweep; also the ledger to pass to
  /// InstanceCache so a cache miss charges its "graph-build" phase here.
  RoundLedger& ledger() { return ledger_; }

  /// Engine options for every algorithm run inside this cell (serial when
  /// the sweep is parallel — see header comment).
  EngineOptions engine() const { return engine_; }

 private:
  friend class SweepDriver;
  CellContext(RoundLedger& ledger, EngineOptions engine)
      : ledger_(ledger), engine_(engine) {}

  RoundLedger& ledger_;
  EngineOptions engine_;
};

class SweepDriver {
 public:
  explicit SweepDriver(SweepOptions options = {}) : options_(options) {}

  /// Runs fn(i, ctx) for every cell i in [0, num_cells) and returns the
  /// rows in cell-index order. Row must be default-constructible. If any
  /// cell throws, the lowest-index exception propagates.
  template <typename Row, typename Fn>
  std::vector<Row> run(std::size_t num_cells, Fn&& fn) {
    std::vector<Row> rows(num_cells);
    std::vector<RoundLedger> ledgers(num_cells);
    const auto cache_before = InstanceCache::global().stats();
    const double start_ms = steady_ms();

    int workers = options_.workers > 0 ? options_.workers
                                       : ThreadPool::default_workers();
    if (static_cast<std::size_t>(workers) > num_cells)
      workers = static_cast<int>(num_cells == 0 ? 1 : num_cells);

    // Each cell's wall-clock lands in its ledger's "cell" phase, minus
    // whatever a cache miss charged to "graph-build" inside the cell, so
    // instance generation and algorithm time stay separate phases.
    const auto run_cell = [&](std::size_t i, EngineOptions engine) {
      CellContext ctx(ledgers[i], engine);
      const double cell_start = steady_ms();
      rows[i] = fn(i, ctx);
      const double elapsed = steady_ms() - cell_start;
      ledgers[i].charge_time("cell",
                             elapsed - ledgers[i].phase_time("graph-build"));
    };

    if (workers <= 1) {
      // A failing cell propagates at once, as in the serial loop the
      // driver replaced.
      for (std::size_t i = 0; i < num_cells; ++i)
        run_cell(i, options_.cell_engine);
    } else {
      // One pool slot per sweep worker; inside a slot, cells are claimed
      // off a shared counter so a slow cell does not idle the other
      // workers. Cell i only ever writes rows[i] / ledgers[i] / errors[i].
      const EngineOptions serial{.num_threads = 1};
      std::vector<std::exception_ptr> errors(num_cells);
      std::atomic<std::size_t> next{0};
      ThreadPool::shared(workers).for_range(
          0, static_cast<std::size_t>(workers),
          [&](int, std::size_t, std::size_t) {
            for (;;) {
              const std::size_t i =
                  next.fetch_add(1, std::memory_order_relaxed);
              if (i >= num_cells) break;
              try {
                run_cell(i, serial);
              } catch (...) {
                errors[i] = std::current_exception();
              }
            }
          });
      for (auto& error : errors)
        if (error) std::rethrow_exception(error);
    }

    wall_ms_ = steady_ms() - start_ms;
    cells_ = num_cells;
    workers_used_ = workers;
    ledger_.clear();
    for (const auto& ledger : ledgers) ledger_.merge(ledger);
    const auto cache_after = InstanceCache::global().stats();
    cache_hits_ = cache_after.hits - cache_before.hits;
    cache_misses_ = cache_after.misses - cache_before.misses;
    return rows;
  }

  /// Per-cell ledgers of the last run, merged in cell-index order.
  const RoundLedger& ledger() const { return ledger_; }

  /// Wall-clock of the last run (pool dispatch to join), milliseconds.
  double wall_ms() const { return wall_ms_; }

  /// One "SWEEP ..." summary line for the last run: cell/worker counts,
  /// wall-clock, instance-cache hit/miss delta, and graph-build ms.
  std::string report() const;

 private:
  static double steady_ms();

  SweepOptions options_;
  RoundLedger ledger_;
  double wall_ms_ = 0;
  std::size_t cells_ = 0;
  int workers_used_ = 1;
  std::size_t cache_hits_ = 0;
  std::size_t cache_misses_ = 0;
};

}  // namespace deltacolor::bench
