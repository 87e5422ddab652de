#include "bench_support/sweep.hpp"

#include <chrono>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/parse.hpp"

namespace deltacolor::bench {

SweepOptions sweep_options_from_env(SweepOptions base) {
  if (const auto n = env_number("DELTACOLOR_SWEEP_RETRIES", 1,
                                std::numeric_limits<int>::max()))
    base.retry.max_attempts = *n;
  if (const auto n = env_number<std::int64_t>(
          "DELTACOLOR_SWEEP_ROUND_BUDGET", 0,
          std::numeric_limits<std::int64_t>::max()))
    base.retry.round_budget = *n;
  if (const auto ms = env_number("DELTACOLOR_SWEEP_DEADLINE_MS", 0.0,
                                 std::numeric_limits<double>::max()))
    base.retry.deadline_ms = *ms;
  if (const auto q = env_number("DELTACOLOR_SWEEP_QUARANTINE", 0, 1))
    base.retry.quarantine = *q != 0;
  const auto resume = env_number("DELTACOLOR_SWEEP_RESUME", 0, 1);
  if (const char* path = std::getenv("DELTACOLOR_SWEEP_JOURNAL");
      path != nullptr && *path != '\0')
    base.journal = std::make_shared<SweepJournal>(path, resume == 1);
  return base;
}

double SweepDriver::steady_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string SweepDriver::report() const {
  std::ostringstream out;
  out << "SWEEP cells=" << cells_ << " workers=" << workers_used_
      << " wall_ms=" << wall_ms_ << " cache_hits=" << cache_hits_
      << " cache_misses=" << cache_misses_
      << " graph_build_ms=" << ledger_.phase_time("graph-build");
  if (hardened_)
    out << " retried=" << retried_ << " quarantined=" << quarantined_
        << " resumed=" << resumed_;
  return out.str();
}

}  // namespace deltacolor::bench
