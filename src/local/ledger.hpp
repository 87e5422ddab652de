// Round and wall-clock accounting for the LOCAL model.
//
// Every distributed subroutine charges the rounds it consumed, tagged with a
// phase label, so benches can report both the total round complexity and the
// per-phase breakdown of Lemma 18. Virtual-graph subroutines charge
// dilation * virtual_rounds, where the dilation is the number of real
// communication rounds needed to simulate one round of the virtual graph
// (<= 6 for every virtual graph in the paper).
//
// Alongside the (machine-independent, seed-reproducible) round counts the
// ledger also accumulates per-phase wall-clock milliseconds
// (charge_time / time_report), so benches can emit a machine-readable line
// with both dimensions. Phase labels are interned: charge() takes a
// std::string_view and resolves it against the phase-id map with a
// heterogeneous (allocation-free) lookup, so per-round charges on hot paths
// never construct a temporary std::string — a label is copied exactly once,
// on its first charge. phases() preserves first-charge order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace deltacolor {

namespace detail {

/// Transparent hash so unordered_map lookups accept std::string_view
/// without materializing a std::string (C++20 heterogeneous lookup).
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
  std::size_t operator()(const std::string& s) const {
    return std::hash<std::string_view>{}(s);
  }
};

using PhaseIndex =
    std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>;

}  // namespace detail

class RoundLedger {
 public:
  /// Charges `rounds` real rounds against `phase`.
  void charge(std::string_view phase, std::int64_t rounds,
              std::int64_t dilation = 1);

  /// Charges `ms` wall-clock milliseconds against `phase`. Wall-clock is
  /// measurement metadata, not simulated rounds: it never affects total().
  void charge_time(std::string_view phase, double ms);

  /// Total rounds across all phases.
  std::int64_t total() const { return total_; }

  /// Total wall-clock milliseconds across all phases.
  double time_total() const { return time_total_; }

  /// Rounds charged against one phase label (0 if absent). O(1).
  std::int64_t phase_total(std::string_view phase) const;

  /// Milliseconds charged against one phase label (0 if absent). O(1).
  double phase_time(std::string_view phase) const;

  /// (phase, rounds) in first-charge order.
  const std::vector<std::pair<std::string, std::int64_t>>& phases() const {
    return phases_;
  }

  /// (phase, milliseconds) in first-charge order.
  const std::vector<std::pair<std::string, double>>& times() const {
    return times_;
  }

  /// Adds every phase (rounds and wall-clock) of `other` into this ledger.
  void merge(const RoundLedger& other);

  /// Human-readable multi-line breakdown (rounds, plus ms when charged).
  std::string report() const;

  /// Human-readable per-phase wall-clock breakdown.
  std::string time_report() const;

  /// One-line JSON object with both dimensions:
  /// {"rounds":N,"ms":X,"phases":{"p":{"rounds":N,"ms":X},...}}
  std::string json() const;

  void clear();

 private:
  std::vector<std::pair<std::string, std::int64_t>> phases_;
  std::vector<std::pair<std::string, double>> times_;
  detail::PhaseIndex phase_index_;
  detail::PhaseIndex time_index_;
  std::int64_t total_ = 0;
  double time_total_ = 0.0;
};

/// RAII helper: charges the elapsed wall-clock of its scope to a phase.
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(RoundLedger& ledger, std::string_view phase);
  ~ScopedPhaseTimer();

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  RoundLedger& ledger_;
  std::string phase_;
  std::int64_t start_ns_;
};

/// Charges back-to-back stretches of wall-clock to phases, for pipelines
/// written as one straight sequence of phases: lap(p) charges the time
/// since construction (or the previous lap) to p and restarts the clock.
class PhaseLaps {
 public:
  explicit PhaseLaps(RoundLedger& ledger);
  void lap(std::string_view phase);

 private:
  RoundLedger& ledger_;
  std::int64_t start_ns_;
};

}  // namespace deltacolor
