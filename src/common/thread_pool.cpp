#include "common/thread_pool.hpp"

#include <atomic>
#include <limits>
#include <map>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace deltacolor {

namespace {

std::atomic<int> g_default_workers{0};  // 0 = not yet overridden

int clamp_workers(long n) {
  if (n < 1) return 1;
  if (n > 256) return 256;
  return static_cast<int>(n);
}

/// Worker w's contiguous slice of [begin, end) among `workers` chunks.
std::pair<std::size_t, std::size_t> slice(std::size_t begin, std::size_t end,
                                          int worker, int workers) {
  const std::size_t len = end - begin;
  const std::size_t lo = begin + len * static_cast<std::size_t>(worker) /
                                     static_cast<std::size_t>(workers);
  const std::size_t hi = begin + len * static_cast<std::size_t>(worker + 1) /
                                     static_cast<std::size_t>(workers);
  return {lo, hi};
}

}  // namespace

ThreadPool::ThreadPool(int num_workers)
    : num_workers_(num_workers > 0 ? clamp_workers(num_workers)
                                   : default_workers()) {
  threads_.reserve(static_cast<std::size_t>(num_workers_ - 1));
  for (int w = 1; w < num_workers_; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::for_range(std::size_t begin, std::size_t end,
                           const RangeFn& fn) {
  if (begin >= end) return;
  if (num_workers_ == 1 || end - begin == 1) {
    fn(0, begin, end);
    return;
  }
  run_job(fn, begin, end);
}

void ThreadPool::run_job(const RangeFn& fn, std::size_t begin,
                         std::size_t end) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    DC_CHECK_MSG(job_ == nullptr, "ThreadPool jobs are not reentrant");
    errors_.assign(static_cast<std::size_t>(num_workers_), nullptr);
    job_ = &fn;
    job_begin_ = begin;
    job_end_ = end;
    pending_ = num_workers_ - 1;
    ++epoch_;
  }
  job_cv_.notify_all();
  const auto [lo, hi] = slice(begin, end, 0, num_workers_);
  try {
    fn(0, lo, hi);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  job_ = nullptr;
  // Rethrow the lowest-worker-index failure only after every chunk has
  // finished or failed — the pool is back in a clean state either way.
  for (std::exception_ptr& error : errors_)
    if (error) {
      const std::exception_ptr first = error;
      lock.unlock();
      std::rethrow_exception(first);
    }
}

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const RangeFn* job = nullptr;
    std::size_t begin = 0, end = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      job = job_;
      begin = job_begin_;
      end = job_end_;
    }
    const auto [lo, hi] = slice(begin, end, worker, num_workers_);
    try {
      (*job)(worker, lo, hi);
    } catch (...) {
      errors_[static_cast<std::size_t>(worker)] = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
    }
    done_cv_.notify_one();
  }
}

int ThreadPool::default_workers() {
  const int overridden = g_default_workers.load(std::memory_order_relaxed);
  if (overridden > 0) return overridden;
  // 0 (like unset) means all hardware threads.
  const int n = env_number("DELTACOLOR_THREADS", 0,
                           std::numeric_limits<int>::max())
                    .value_or(0);
  if (n > 0) return clamp_workers(n);
  return clamp_workers(
      static_cast<long>(std::thread::hardware_concurrency()));
}

void ThreadPool::set_default_workers(int n) {
  g_default_workers.store(n > 0 ? clamp_workers(n) : 0,
                          std::memory_order_relaxed);
}

ThreadPool& ThreadPool::shared(int workers) {
  if (workers <= 0) {
    static ThreadPool pool(default_workers());
    return pool;
  }
  const int w = clamp_workers(workers);
  static std::mutex mu;
  static std::map<int, ThreadPool> pools;  // node-stable: refs stay valid
  std::lock_guard<std::mutex> lock(mu);
  return pools.try_emplace(w, w).first->second;
}

}  // namespace deltacolor
