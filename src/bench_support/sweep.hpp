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
//    matching the serial loop's failure order. That all-or-nothing default
//    is the *legacy* policy; see the robustness layer below.
//
// Robustness layer (see DESIGN.md §fault-tolerance): SweepOptions::retry
// configures per-cell round budgets, wall-clock deadlines, bounded retry
// with seed perturbation, and quarantine. With quarantine enabled a
// persistently failing cell keeps its default row, its CellOutcome
// records status/category/error, and every other cell's row survives —
// partial-result tables instead of a torn-down sweep. A
// SweepJournal checkpoints each finished cell (JSONL, keyed by the
// caller's key_fn: instance-cache key + algorithm + seed) so a killed
// sweep resumes from completed cells. Everything is off by default and
// env-configurable (sweep_options_from_env), so fault-free default runs
// stay bit-identical to the pre-robustness driver.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/instance_cache.hpp"
#include "bench_support/journal.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "local/faults.hpp"
#include "local/ledger.hpp"
#include "local/sync_runner.hpp"

namespace deltacolor::bench {

/// Per-cell failure-handling policy. The default is the legacy contract:
/// one attempt, no budgets, failures rethrow (lowest cell index first).
struct RetryPolicy {
  /// Attempts per cell (>= 1). Retries re-run the cell with the same
  /// inputs; randomized cells draw a perturbed seed via
  /// CellContext::seed_for, faithful to the w.h.p. semantics (a failed
  /// trial re-runs with fresh randomness). Each retry charges one round
  /// to the cell's "retry" phase.
  int max_attempts = 1;
  /// Max simulated rounds one attempt may charge (ledger total delta);
  /// 0 = unlimited. Exceeding it fails the attempt with
  /// kRoundBudgetExceeded.
  std::int64_t round_budget = 0;
  /// Max wall-clock per attempt, milliseconds; 0 = unlimited. Exceeding it
  /// fails the attempt with kWallClockTimeout.
  double deadline_ms = 0;
  /// After max_attempts failures: true = quarantine the cell (default row,
  /// status recorded, other cells unaffected); false = legacy rethrow.
  bool quarantine = false;

  bool is_default() const {
    return max_attempts <= 1 && round_budget == 0 && deadline_ms == 0 &&
           !quarantine;
  }
};

struct SweepOptions {
  /// Concurrent cells. <= 0 means ThreadPool::default_workers().
  int workers = 0;
  /// Engine options cells receive when the sweep itself is serial.
  EngineOptions cell_engine;
  /// Failure handling (budgets, retry, quarantine). Default = legacy.
  RetryPolicy retry;
  /// Optional checkpoint journal (shared so env-built options can be
  /// copied into several drivers of one binary).
  std::shared_ptr<SweepJournal> journal;
};

/// Overlays DELTACOLOR_SWEEP_* environment variables on `base`, so every
/// bench binary is retry/journal-capable without per-binary flags:
///   DELTACOLOR_SWEEP_RETRIES      max attempts per cell
///   DELTACOLOR_SWEEP_ROUND_BUDGET per-attempt simulated-round budget
///   DELTACOLOR_SWEEP_DEADLINE_MS  per-attempt wall-clock deadline
///   DELTACOLOR_SWEEP_QUARANTINE   1 = quarantine instead of rethrow
///   DELTACOLOR_SWEEP_JOURNAL      JSONL journal path
///   DELTACOLOR_SWEEP_RESUME      1 = load the journal and skip done cells
SweepOptions sweep_options_from_env(SweepOptions base = {});

/// Terminal record of one cell. `category`/`error` are meaningful only
/// when status is kQuarantined.
struct CellOutcome {
  CellStatus status = CellStatus::kOk;
  int attempts = 1;
  bool resumed = false;  ///< row served from the journal, not executed
  FaultCategory category = FaultCategory::kEngineException;
  std::string error;
};

/// Row serialization for journal checkpointing. Encode may use any
/// line-safe format (the journal JSON-escapes it); decode returns false on
/// a foreign/stale payload, which simply re-runs the cell.
template <typename Row>
struct CellCodec {
  std::function<std::string(const Row&)> encode;
  std::function<bool(std::string_view, Row*)> decode;
};

template <typename Row>
struct SweepResult {
  std::vector<Row> rows;
  std::vector<CellOutcome> outcomes;

  bool all_ok() const {
    return std::all_of(outcomes.begin(), outcomes.end(),
                       [](const CellOutcome& oc) {
                         return oc.status != CellStatus::kQuarantined;
                       });
  }
  std::size_t quarantined() const {
    return static_cast<std::size_t>(
        std::count_if(outcomes.begin(), outcomes.end(),
                      [](const CellOutcome& oc) {
                        return oc.status == CellStatus::kQuarantined;
                      }));
  }
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

  /// Sweep worker executing this cell (0 when serial).
  int worker() const { return worker_; }

  /// This cell's index in the sweep grid.
  std::size_t cell() const { return cell_; }

  /// Attempt number under the retry policy (0 = first run).
  int attempt() const { return attempt_; }

  /// The seed a randomized cell should run under: `base` on the first
  /// attempt, a deterministic perturbation keyed by (cell, attempt) on
  /// retries — the w.h.p. re-run gets fresh randomness, and the failing
  /// attempt stays reproducible from its recorded attempt index.
  std::uint64_t seed_for(std::uint64_t base) const {
    if (attempt_ == 0) return base;
    return hash_mix(base, static_cast<std::uint64_t>(cell_) + 1,
                    static_cast<std::uint64_t>(attempt_));
  }

 private:
  friend class SweepDriver;
  CellContext(RoundLedger& ledger, EngineOptions engine, int worker,
              std::size_t cell)
      : ledger_(ledger), engine_(engine), worker_(worker), cell_(cell) {}

  RoundLedger& ledger_;
  EngineOptions engine_;
  int worker_;
  std::size_t cell_ = 0;
  int attempt_ = 0;
};

class SweepDriver {
 public:
  using KeyFn = std::function<std::string(std::size_t)>;

  explicit SweepDriver(SweepOptions options = {})
      : options_(std::move(options)) {}

  /// Runs fn(i, ctx) for every cell i in [0, num_cells) and returns the
  /// rows in cell-index order. Row must be default-constructible. Honors
  /// the retry policy; in quarantine mode no exception escapes and callers
  /// needing per-cell status should use run_cells instead.
  template <typename Row, typename Fn>
  std::vector<Row> run(std::size_t num_cells, Fn&& fn) {
    return run_cells<Row>(num_cells, std::forward<Fn>(fn)).rows;
  }

  /// The full-fidelity entry point: rows plus per-cell outcomes. `key_fn`
  /// names cells for the journal (instance-cache key + algorithm + seed);
  /// `codec` serializes rows for checkpoint/resume. Both optional — without
  /// them the journal records status lines only and resume re-runs.
  template <typename Row, typename Fn>
  SweepResult<Row> run_cells(std::size_t num_cells, Fn&& fn,
                             const KeyFn& key_fn = {},
                             const CellCodec<Row>* codec = nullptr) {
    SweepResult<Row> out;
    out.rows.resize(num_cells);
    out.outcomes.resize(num_cells);
    std::vector<RoundLedger> ledgers(num_cells);
    const auto cache_before = InstanceCache::global().stats();
    const double start_ms = steady_ms();

    int workers = options_.workers > 0 ? options_.workers
                                       : ThreadPool::default_workers();
    if (static_cast<std::size_t>(workers) > num_cells)
      workers = static_cast<int>(num_cells == 0 ? 1 : num_cells);

    SweepJournal* journal = options_.journal.get();
    const RetryPolicy& policy = options_.retry;
    hardened_ = !policy.is_default() || journal != nullptr;

    // Each cell's wall-clock lands in its ledger's "cell" phase, minus
    // whatever a cache miss charged to "graph-build" inside the cell, so
    // instance generation and algorithm time stay separate phases.
    const auto timed_cell = [&](std::size_t i, CellContext& ctx) {
      const double build_before = ledgers[i].phase_time("graph-build");
      const double cell_start = steady_ms();
      out.rows[i] = fn(i, ctx);
      const double elapsed = steady_ms() - cell_start;
      const double built =
          ledgers[i].phase_time("graph-build") - build_before;
      ledgers[i].charge_time("cell", elapsed - built);
    };

    // Full per-cell protocol: resume lookup, attempt loop with budget
    // checks, quarantine or deferred rethrow, journal checkpoint. Returns
    // non-null only in legacy rethrow mode.
    const auto exec_cell = [&](std::size_t i,
                               CellContext& ctx) -> std::exception_ptr {
      const std::string key = key_fn ? key_fn(i) : std::string();
      if (journal != nullptr && journal->resuming() && !key.empty()) {
        if (const JournalEntry* done = journal->lookup(key)) {
          // ok/retried entries are served from their checkpoint;
          // quarantined cells re-run (a resume wants another shot at the
          // failures, not a cached failure report).
          if (done->status != CellStatus::kQuarantined &&
              (codec == nullptr ||
               codec->decode(done->payload, &out.rows[i]))) {
            out.outcomes[i].status = done->status;
            out.outcomes[i].attempts = done->attempts;
            out.outcomes[i].resumed = true;
            return nullptr;
          }
        }
      }
      CellOutcome& oc = out.outcomes[i];
      std::exception_ptr fatal;
      for (int attempt = 0;; ++attempt) {
        ctx.attempt_ = attempt;
        FaultInjector::CellScope scope(static_cast<std::int64_t>(i),
                                       attempt);
        const std::int64_t rounds_before = ctx.ledger().total();
        const double attempt_start = steady_ms();
        bool failed = false;
        FaultCategory category = FaultCategory::kEngineException;
        std::string error;
        std::exception_ptr raw;
        try {
          if (FaultInjector::armed())
            FaultInjector::global().on_cell_start();
          timed_cell(i, ctx);
        } catch (const CellError& e) {
          failed = true;
          category = e.category();
          error = e.what();
          raw = std::current_exception();
        } catch (const std::exception& e) {
          failed = true;
          error = e.what();
          raw = std::current_exception();
        } catch (...) {
          failed = true;
          error = "unknown exception";
          raw = std::current_exception();
        }
        if (!failed) {
          const std::int64_t used = ctx.ledger().total() - rounds_before;
          if (policy.round_budget > 0 && used > policy.round_budget) {
            failed = true;
            category = FaultCategory::kRoundBudgetExceeded;
            error = "cell charged " + std::to_string(used) +
                    " rounds (budget " +
                    std::to_string(policy.round_budget) + ")";
            raw = nullptr;
          } else if (policy.deadline_ms > 0 &&
                     steady_ms() - attempt_start > policy.deadline_ms) {
            failed = true;
            category = FaultCategory::kWallClockTimeout;
            error = "cell exceeded its wall-clock deadline (" +
                    std::to_string(policy.deadline_ms) + " ms)";
            raw = nullptr;
          }
        }
        if (!failed) {
          oc.status = attempt == 0 ? CellStatus::kOk : CellStatus::kRetried;
          oc.attempts = attempt + 1;
          break;
        }
        if (attempt + 1 >= std::max(1, policy.max_attempts)) {
          oc.attempts = attempt + 1;
          oc.category = category;
          oc.error = error;
          if (policy.quarantine) {
            oc.status = CellStatus::kQuarantined;
            out.rows[i] = Row{};  // partial-result table: default row
            break;
          }
          fatal = raw ? raw
                      : std::make_exception_ptr(CellError(category, error));
          break;
        }
        // Bounded retry: the re-run coordination costs one simulated round
        // (charged so the ledger shows the w.h.p. re-run); the next
        // attempt sees a fresh seed via CellContext::seed_for.
        ctx.ledger().charge("retry", 1);
      }
      if (fatal == nullptr && journal != nullptr && !key.empty()) {
        JournalEntry entry;
        entry.key = key;
        entry.status = oc.status;
        entry.attempts = oc.attempts;
        if (oc.status == CellStatus::kQuarantined) {
          entry.category = std::string(to_string(oc.category));
          entry.error = oc.error;
        } else if (codec != nullptr && codec->encode) {
          entry.payload = codec->encode(out.rows[i]);
        }
        journal->record(entry);
      }
      return fatal;
    };

    if (workers <= 1) {
      for (std::size_t i = 0; i < num_cells; ++i) {
        CellContext ctx(ledgers[i], options_.cell_engine, 0, i);
        // Legacy rethrow mode propagates from the failing cell
        // immediately, matching the serial loop the driver replaced.
        if (auto err = exec_cell(i, ctx)) std::rethrow_exception(err);
      }
    } else {
      // One pool slot per sweep worker; inside a slot, cells are claimed
      // off a shared counter so a slow cell does not idle the other
      // workers. Cell i only ever writes rows[i] / ledgers[i] / errors[i].
      EngineOptions serial = options_.cell_engine;  // keeps frontier
      serial.num_threads = 1;
      std::vector<std::exception_ptr> errors(num_cells);
      std::atomic<std::size_t> next{0};
      ThreadPool::shared(workers).for_range(
          0, static_cast<std::size_t>(workers),
          [&](int worker, std::size_t, std::size_t) {
            for (;;) {
              const std::size_t i =
                  next.fetch_add(1, std::memory_order_relaxed);
              if (i >= num_cells) break;
              CellContext ctx(ledgers[i], serial, worker, i);
              errors[i] = exec_cell(i, ctx);
            }
          });
      for (auto& error : errors)
        if (error) std::rethrow_exception(error);
    }

    wall_ms_ = steady_ms() - start_ms;
    cells_ = num_cells;
    workers_used_ = workers;
    retried_ = quarantined_ = resumed_ = 0;
    for (const CellOutcome& oc : out.outcomes) {
      retried_ += oc.status == CellStatus::kRetried && !oc.resumed;
      quarantined_ += oc.status == CellStatus::kQuarantined;
      resumed_ += oc.resumed;
    }
    ledger_.clear();
    for (const auto& ledger : ledgers) ledger_.merge(ledger);
    const auto cache_after = InstanceCache::global().stats();
    cache_hits_ = cache_after.hits - cache_before.hits;
    cache_misses_ = cache_after.misses - cache_before.misses;
    return out;
  }

  /// Per-cell ledgers of the last run, merged in cell-index order.
  const RoundLedger& ledger() const { return ledger_; }

  /// Wall-clock of the last run (pool dispatch to join), milliseconds.
  double wall_ms() const { return wall_ms_; }

  /// One "SWEEP ..." summary line for the last run: cell/worker counts,
  /// wall-clock, instance-cache hit/miss delta, and graph-build ms. When
  /// the robustness layer is active (non-default retry policy or a
  /// journal), also retried/quarantined/resumed counts — never otherwise,
  /// so fault-free default reports stay byte-identical.
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
  bool hardened_ = false;
  std::size_t retried_ = 0;
  std::size_t quarantined_ = 0;
  std::size_t resumed_ = 0;
};

}  // namespace deltacolor::bench
