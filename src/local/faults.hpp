// Deterministic, seeded fault injection for the engine and sweep stack.
//
// The recovery paths of the robustness layer (CellError taxonomy, sweep
// retry / quarantine, journal + --resume) are only trustworthy if they are
// exercised — in CI, not just in theory. The FaultInjector plants failures
// at chosen (cell, attempt, round, phase) coordinates:
//
//   kEngineException    — throw from inside the cell (cell start, a phase
//                         charge, or an exact engine round)
//   kRoundBudgetExceeded— inflate a phase charge by `extra_rounds` so the
//                         driver's round-budget enforcement trips naturally
//   kWallClockTimeout   — sleep `sleep_ms` inside the cell so the driver's
//                         deadline check trips naturally
//   kInvariantViolation — corrupt the partial coloring at a validation
//                         oracle site so the --validate checker detects a
//                         genuine monochromatic edge
//   kProcessKill        — std::_Exit(137) at cell start, simulating a
//                         SIGKILL mid-sweep for journal/--resume round-trips
//                         (cell start has no round, so a round= coordinate
//                         is a parse error for this category)
//
// Determinism: a spec fires iff its coordinates match the thread-local
// (cell, attempt) installed by the SweepDriver plus the probe-site (round,
// phase), and fires at most once per (cell, attempt) — so the set of fired
// faults is a function of the plan and the sweep grid, independent of the
// worker schedule. Free choices (which node to corrupt) are drawn from
// hash_mix(seed, cell, ...), never from shared mutable RNG state.
//
// Cost when disarmed: every probe site is guarded by `if
// (FaultInjector::armed())` — one relaxed atomic load — so production runs
// pay nothing measurable.
//
// Arming: programmatically via arm(), or from the environment
// (DELTACOLOR_FAULTS="spec;spec", DELTACOLOR_FAULT_SEED=N), parsed on first
// use so every binary — benches, dcolor, tests — is injectable with zero
// per-binary wiring. Spec grammar:
//   category@key=value,key=value,...
// with category one of the to_string(FaultCategory) names and keys
//   cell= round= phase= node= attempts= extra_rounds= sleep_ms=
// (attempts=N fires on the first N attempts of a cell, default 1, so a
// retried cell succeeds; attempts=0 means every attempt, forcing
// quarantine). A malformed DELTACOLOR_FAULTS value — unknown category,
// unknown key, a bad pair, or a coordinate the category can never match —
// is a hard error: the injector prints the offending spec with a
// did-you-mean suggestion to stderr and exits with status 2, because an
// armed fault plan that silently half-parses is worse than no plan at all
// (the chaos test believes it is injecting and isn't).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/errors.hpp"
#include "common/types.hpp"

namespace deltacolor {

class Graph;

struct FaultSpec {
  FaultCategory category = FaultCategory::kEngineException;
  // Coordinates (-1 / empty = wildcard).
  std::int64_t cell = -1;   ///< sweep cell index
  std::int64_t round = -1;  ///< exact engine round (engine-round site only)
  std::string phase;        ///< ledger phase label (charge/oracle sites)
  std::int64_t node = -1;   ///< corruption target (invariant faults)
  /// Fire while the cell's attempt index is < attempts (0 = every attempt).
  int attempts = 1;
  // Payloads.
  std::int64_t extra_rounds = 1'000'000'000;  ///< round-budget inflation
  double sleep_ms = 20.0;                     ///< timeout stall
};

/// Parses one spec string ("category@k=v,..."). Returns false on grammar
/// errors (unknown category / key, malformed pair, process-kill with a
/// round= coordinate).
bool parse_fault_spec(std::string_view text, FaultSpec* out);

/// As above, but on failure fills `error` with a one-line description of
/// what was wrong — including a did-you-mean suggestion when the unknown
/// category or key is within edit distance 3 of a real one (mirroring the
/// algorithm registry's suggestion behavior).
bool parse_fault_spec(std::string_view text, FaultSpec* out,
                      std::string* error);

class FaultInjector {
 public:
  /// Process-wide injector. First call parses DELTACOLOR_FAULTS (if set).
  static FaultInjector& global();

  void arm(std::vector<FaultSpec> plan, std::uint64_t seed = 1);
  void disarm();
  /// Fast disarmed-path guard: call before any probe method. Touches
  /// global() exactly once so a DELTACOLOR_FAULTS plan in the environment
  /// arms the injector before the first probe (otherwise nothing would
  /// ever construct the singleton that parses it); after that the guard
  /// is an initialized-check plus one relaxed atomic load.
  static bool armed() {
    static const bool env_checked = (global(), true);
    (void)env_checked;
    return armed_flag().load(std::memory_order_relaxed);
  }

  /// Total faults fired since the last arm() (all categories).
  std::size_t fired() const;

  /// Installs the sweep-cell coordinates on the calling thread for the
  /// scope's duration. Engine probes run on this thread too (a parallel
  /// sweep serializes cell engines), so (cell, attempt) reach every site.
  class CellScope {
   public:
    CellScope(std::int64_t cell, int attempt);
    ~CellScope();
    CellScope(const CellScope&) = delete;
    CellScope& operator=(const CellScope&) = delete;

   private:
    std::int64_t prev_cell_;
    int prev_attempt_;
  };
  static std::int64_t current_cell();
  static int current_attempt();

  // --- probe sites -------------------------------------------------------
  /// SweepDriver, immediately after installing the CellScope: fires
  /// process-kill, cell-coordinate engine exceptions, and timeout stalls.
  void on_cell_start();

  /// LocalContext::charge: fires phase-coordinate engine exceptions and
  /// timeout stalls; returns extra rounds to charge (round-budget specs).
  std::int64_t on_phase_charge(std::string_view phase);

  /// SyncRunner round loop: fires exact-round engine exceptions and
  /// timeout stalls.
  void on_engine_round(int round);

  /// Validation-oracle site in the composed pipelines: corrupts the
  /// partial coloring (creates a monochromatic edge) on match, so the
  /// oracle detects a genuine violation.
  void maybe_corrupt_coloring(std::string_view phase, const Graph& g,
                              std::vector<Color>& color);

 private:
  FaultInjector();

  static std::atomic<bool>& armed_flag();

  struct ArmedSpec {
    FaultSpec spec;
    // Fire-once-per-(cell, attempt) marker.
    std::int64_t fired_cell = -2;
    int fired_attempt = -1;
  };

  /// Returns the first matching, not-yet-fired spec of `category` for the
  /// current (cell, attempt) and the given site coordinates, marking it
  /// fired. nullptr when none. Caller holds no lock.
  bool claim(FaultCategory category, std::int64_t round,
             std::string_view phase, FaultSpec* out);

  mutable std::mutex mu_;
  std::vector<ArmedSpec> plan_;
  std::uint64_t seed_ = 1;
  std::size_t fired_ = 0;
};

}  // namespace deltacolor
