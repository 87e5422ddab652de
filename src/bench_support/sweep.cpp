#include "bench_support/sweep.hpp"

#include <chrono>
#include <sstream>

namespace deltacolor::bench {

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
  return out.str();
}

}  // namespace deltacolor::bench
