// Concurrent sweep driver for the experiment suite.
//
// A bench is a grid of independent *cells* — (instance, algorithm, seed)
// points — whose results go into a table in grid order. SweepDriver runs
// the cells concurrently on the process-wide ThreadPool and returns the
// rows index-addressed, so output order (and content: every cell is
// seed-deterministic) is identical to the serial loop it replaces.
//
// Determinism and engine rules (see DESIGN.md §sweep-driver):
//  * Cells are claimed dynamically (atomic counter) for load balance, but
//    each cell writes only rows[i].
//  * The engine handed to cells depends on the sweep shape: with a single
//    sweep worker, cells receive the caller's EngineOptions unchanged (the
//    cell itself may parallelize rounds); with multiple sweep workers,
//    cells are forced to num_threads = 1, because ThreadPool::for_range is
//    not reentrant — a cell stepping rounds on the pool that is running the
//    sweep would deadlock-check. One layer parallelizes, never both.
//    Always run a cell's algorithms on the EngineOptions it is handed.
//  * A throwing cell does not tear down the pool: exceptions are captured
//    per cell and the lowest-index one is rethrown after the sweep joins,
//    matching the serial loop's failure order.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "local/sync_runner.hpp"

namespace deltacolor::bench {

struct SweepOptions {
  /// Concurrent cells. <= 0 means ThreadPool::default_workers().
  int workers = 0;
  /// Engine options cells receive when the sweep itself is serial.
  EngineOptions cell_engine;
};

class SweepDriver {
 public:
  explicit SweepDriver(SweepOptions options = {}) : options_(options) {}

  /// Runs fn(i, engine) for every cell i in [0, num_cells) and returns the
  /// rows in cell-index order; `engine` is the EngineOptions for every
  /// algorithm the cell runs (serial when the sweep is parallel — see
  /// header comment). Row must be default-constructible. If any cell
  /// throws, the lowest-index exception propagates.
  template <typename Row, typename Fn>
  std::vector<Row> run(std::size_t num_cells, Fn&& fn) {
    std::vector<Row> rows(num_cells);
    const double start_ms = steady_ms();

    int workers = options_.workers > 0 ? options_.workers
                                       : ThreadPool::default_workers();
    if (static_cast<std::size_t>(workers) > num_cells)
      workers = static_cast<int>(num_cells == 0 ? 1 : num_cells);

    if (workers <= 1) {
      // A failing cell propagates at once, as in the serial loop the
      // driver replaced.
      for (std::size_t i = 0; i < num_cells; ++i)
        rows[i] = fn(i, options_.cell_engine);
    } else {
      // One pool slot per sweep worker; inside a slot, cells are claimed
      // off a shared counter so a slow cell does not idle the other
      // workers. Cell i only ever writes rows[i] / errors[i].
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
                rows[i] = fn(i, serial);
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
    return rows;
  }

  /// Wall-clock of the last run (pool dispatch to join), milliseconds.
  double wall_ms() const { return wall_ms_; }

  /// One "SWEEP cells=… workers=… wall_ms=…" summary line for the last
  /// run.
  std::string report() const;

 private:
  static double steady_ms();

  SweepOptions options_;
  double wall_ms_ = 0;
  std::size_t cells_ = 0;
  int workers_used_ = 1;
};

}  // namespace deltacolor::bench
