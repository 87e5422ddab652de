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
  /// fn on each, blocking until every chunk has finished. Worker w's chunk
  /// is [begin + w*len/W, begin + (w+1)*len/W) for len = end - begin and
  /// W = num_workers(), so calls over the same range hand each worker the
  /// same slice. The calling thread executes chunk 0 itself. Reentrant
  /// calls are not allowed.
  ///
  /// Exception safety: a chunk that throws does not terminate the process
  /// (worker threads catch into per-worker slots); after every chunk has
  /// finished or failed, the lowest-worker-index exception is rethrown on
  /// the calling thread. The pool itself stays usable, so an exception
  /// thrown inside an engine round unwinds to the caller (a sweep cell,
  /// say) and the next call runs normally.
  void for_range(std::size_t begin, std::size_t end, const RangeFn& fn);

  /// Library-wide default worker count (see resolution order above).
  static int default_workers();

  /// Overrides the default (e.g. from a --threads CLI flag). Must be
  /// called before the first shared(0) to affect the default pool.
  static void set_default_workers(int n);

  /// Process-wide cached pool with exactly `workers` workers, shared by
  /// every caller requesting that count (`workers` <= 0 means the default
  /// pool: default_workers() workers, fixed at its first use).
  /// Engines are constructed per primitive call — composed pipelines build
  /// hundreds of short-lived runners — so an explicit worker count must not
  /// spawn (and join) fresh OS threads per runner.
  static ThreadPool& shared(int workers);

 private:
  void worker_loop(int worker);
  void run_job(const RangeFn& fn, std::size_t begin, std::size_t end);

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
  std::uint64_t epoch_ = 0;
  int pending_ = 0;
  bool stop_ = false;
};

}  // namespace deltacolor
