#include "local/ledger.hpp"

#include <chrono>
#include <sstream>

#include "common/check.hpp"

namespace deltacolor {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal JSON string escaping for phase labels.
void append_json_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

/// Heterogeneous find-or-intern: the string_view key only becomes a
/// std::string on the first charge of a label (the interning step).
std::size_t intern(detail::PhaseIndex& index, std::string_view phase,
                   std::size_t next_slot, bool& inserted) {
  const auto it = index.find(phase);
  if (it != index.end()) {
    inserted = false;
    return it->second;
  }
  inserted = true;
  index.emplace(std::string(phase), next_slot);
  return next_slot;
}

}  // namespace

void RoundLedger::charge(std::string_view phase, std::int64_t rounds,
                         std::int64_t dilation) {
  DC_CHECK(rounds >= 0 && dilation >= 1);
  const std::int64_t real = rounds * dilation;
  total_ += real;
  bool inserted = false;
  const std::size_t slot = intern(phase_index_, phase, phases_.size(),
                                  inserted);
  if (inserted)
    phases_.emplace_back(std::string(phase), real);
  else
    phases_[slot].second += real;
}

void RoundLedger::charge_time(std::string_view phase, double ms) {
  DC_CHECK(ms >= 0.0);
  time_total_ += ms;
  bool inserted = false;
  const std::size_t slot = intern(time_index_, phase, times_.size(),
                                  inserted);
  if (inserted)
    times_.emplace_back(std::string(phase), ms);
  else
    times_[slot].second += ms;
}

std::int64_t RoundLedger::phase_total(std::string_view phase) const {
  const auto it = phase_index_.find(phase);
  return it == phase_index_.end() ? 0 : phases_[it->second].second;
}

double RoundLedger::phase_time(std::string_view phase) const {
  const auto it = time_index_.find(phase);
  return it == time_index_.end() ? 0.0 : times_[it->second].second;
}

void RoundLedger::merge(const RoundLedger& other) {
  for (const auto& [phase, rounds] : other.phases_) charge(phase, rounds);
  for (const auto& [phase, ms] : other.times_) charge_time(phase, ms);
}

std::string RoundLedger::report() const {
  std::ostringstream os;
  for (const auto& [phase, rounds] : phases_) {
    os << "  " << phase << ": " << rounds << " rounds";
    if (const double ms = phase_time(phase); ms > 0.0)
      os << " (" << ms << " ms)";
    os << '\n';
  }
  os << "  TOTAL: " << total_ << " rounds";
  if (time_total_ > 0.0) os << " (" << time_total_ << " ms)";
  os << '\n';
  return os.str();
}

std::string RoundLedger::time_report() const {
  std::ostringstream os;
  for (const auto& [phase, ms] : times_)
    os << "  " << phase << ": " << ms << " ms\n";
  os << "  TOTAL: " << time_total_ << " ms\n";
  return os.str();
}

std::string RoundLedger::json() const {
  std::ostringstream os;
  os << "{\"rounds\":" << total_ << ",\"ms\":" << time_total_
     << ",\"phases\":{";
  bool first = true;
  // Phases seen in either dimension, first-charge order, rounds first.
  auto emit = [&](const std::string& phase) {
    if (!first) os << ',';
    first = false;
    append_json_string(os, phase);
    os << ":{\"rounds\":" << phase_total(phase)
       << ",\"ms\":" << phase_time(phase) << '}';
  };
  for (const auto& [phase, rounds] : phases_) emit(phase);
  for (const auto& [phase, ms] : times_)
    if (phase_index_.find(phase) == phase_index_.end()) emit(phase);
  os << "}}";
  return os.str();
}

void RoundLedger::clear() {
  phases_.clear();
  times_.clear();
  phase_index_.clear();
  time_index_.clear();
  total_ = 0;
  time_total_ = 0.0;
}

ScopedPhaseTimer::ScopedPhaseTimer(RoundLedger& ledger,
                                   std::string_view phase)
    : ledger_(ledger), phase_(phase), start_ns_(now_ns()) {}

ScopedPhaseTimer::~ScopedPhaseTimer() {
  ledger_.charge_time(phase_, static_cast<double>(now_ns() - start_ns_) /
                                  1e6);
}

PhaseLaps::PhaseLaps(RoundLedger& ledger)
    : ledger_(ledger), start_ns_(now_ns()) {}

void PhaseLaps::lap(std::string_view phase) {
  const std::int64_t now = now_ns();
  ledger_.charge_time(phase, static_cast<double>(now - start_ns_) / 1e6);
  start_ns_ = now;
}

}  // namespace deltacolor
