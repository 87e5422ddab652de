// Small reusable thread pool with static chunked striping over index
// ranges, built for the synchronous round engine: one fork/join per round,
// contiguous node slices per worker, no work stealing (determinism comes
// from the fact that workers write disjoint slices of the shadow buffer,
// so the schedule cannot leak into results).
//
// Worker count resolution order: explicit constructor argument >
// set_default_workers() (CLI) > DELTACOLOR_THREADS env var (0 = unset; a
// value that is not a whole number >= 0 exits 2) >
// std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace deltacolor {

class ThreadPool {
 public:
  /// fn(worker, begin, end): called once per worker with its contiguous
  /// slice of the range. Results must not depend on `worker`.
  using RangeFn = std::function<void(int worker, std::size_t begin,
                                     std::size_t end)>;

  /// `num_workers` <= 0 means default_workers().
  explicit ThreadPool(int num_workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return num_workers_; }

  /// Splits [begin, end) into num_workers() contiguous chunks and runs
  /// fn on each, blocking until every chunk has finished. The calling
  /// thread executes chunk 0 itself. Reentrant calls are not allowed.
  ///
  /// Exception safety: a chunk that throws does not terminate the process
  /// (worker threads catch into per-worker slots); after every chunk has
  /// finished or failed, the lowest-worker-index exception is rethrown on
  /// the calling thread. The pool itself stays usable — this is what lets
  /// a structured CellError thrown inside an engine round unwind to the
  /// sweep driver's retry/quarantine policy.
  void for_range(std::size_t begin, std::size_t end, const RangeFn& fn);

  /// Like for_range, but the caller fixes the chunk boundaries: worker w
  /// runs [bounds[w], bounds[w+1]). `bounds` must have num_workers() + 1
  /// ascending entries. This pins a *stable* worker -> index-range
  /// affinity across rounds (the round engine passes the same bounds
  /// every round, so each worker re-touches the same graph/state pages —
  /// cache- and NUMA-first-touch-friendly), and lets the caller balance
  /// by per-index weight (degrees) instead of index count. Same exception
  /// contract as for_range.
  void for_chunks(const std::vector<std::size_t>& bounds, const RangeFn& fn);

  /// Library-wide default worker count (see resolution order above).
  static int default_workers();

  /// Overrides the default (e.g. from a --threads CLI flag). Must be
  /// called before the first use of global() to affect the shared pool.
  static void set_default_workers(int n);

  /// Lazily constructed process-wide pool with default_workers() workers.
  static ThreadPool& global();

  /// Process-wide cached pool with exactly `workers` workers, shared by
  /// every caller requesting that count (`workers` <= 0 maps to global()).
  /// Engines are constructed per primitive call — composed pipelines build
  /// hundreds of short-lived runners — so an explicit worker count must not
  /// spawn (and join) fresh OS threads per runner.
  static ThreadPool& shared(int workers);

 private:
  void worker_loop(int worker);
  void run_job(const RangeFn& fn, std::size_t begin, std::size_t end,
               const std::size_t* bounds);

  int num_workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  // Per-worker exception slots for the current job (disjoint writes; read
  // by the caller after the join barrier).
  std::vector<std::exception_ptr> errors_;
  const RangeFn* job_ = nullptr;
  std::size_t job_begin_ = 0;
  std::size_t job_end_ = 0;
  // Non-null while a for_chunks job runs: worker w's slice is
  // [job_bounds_[w], job_bounds_[w+1]) instead of the uniform stripe.
  const std::size_t* job_bounds_ = nullptr;
  std::uint64_t epoch_ = 0;
  int pending_ = 0;
  bool stop_ = false;
};

}  // namespace deltacolor
