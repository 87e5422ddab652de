#include "bench_support/sweep.hpp"

#include <chrono>
#include <cstdlib>
#include <sstream>

namespace deltacolor::bench {

namespace {

bool env_int64(const char* name, std::int64_t* out) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  char* rest = nullptr;
  const long long n = std::strtoll(v, &rest, 10);
  if (rest == v || *rest != '\0') return false;
  *out = n;
  return true;
}

bool env_double(const char* name, double* out) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  char* rest = nullptr;
  const double x = std::strtod(v, &rest);
  if (rest == v || *rest != '\0') return false;
  *out = x;
  return true;
}

}  // namespace

SweepOptions sweep_options_from_env(SweepOptions base) {
  std::int64_t n = 0;
  if (env_int64("DELTACOLOR_SWEEP_RETRIES", &n) && n >= 1)
    base.retry.max_attempts = static_cast<int>(n);
  if (env_int64("DELTACOLOR_SWEEP_ROUND_BUDGET", &n) && n >= 0)
    base.retry.round_budget = n;
  double ms = 0;
  if (env_double("DELTACOLOR_SWEEP_DEADLINE_MS", &ms) && ms >= 0)
    base.retry.deadline_ms = ms;
  if (env_int64("DELTACOLOR_SWEEP_QUARANTINE", &n))
    base.retry.quarantine = n != 0;
  if (const char* path = std::getenv("DELTACOLOR_SWEEP_JOURNAL");
      path != nullptr && *path != '\0') {
    std::int64_t resume = 0;
    env_int64("DELTACOLOR_SWEEP_RESUME", &resume);
    base.journal = std::make_shared<SweepJournal>(path, resume != 0);
  }
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
