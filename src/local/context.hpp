// LocalContext: the execution context threaded through every LOCAL
// subroutine — the only way into a primitive and the only way library code
// charges a round.
//
// A context bundles
//   - the RoundLedger round/wall-clock accounting sink,
//   - the EngineOptions (worker threads) every SyncRunner spawned below
//     this call inherits,
//   - the random seed randomized subroutines draw from, and
//   - a scoped *phase stack*: charges always go to the innermost pushed
//     phase label, so a composed pipeline (e.g. hard-clique Phase 1 calling
//     maximal matching calling forest coloring) attributes every nested
//     round to the phase the caller opened, without label parameters
//     percolating through each signature.
//
// Phase semantics: callers open phases with ScopedPhase; a primitive's
// entry point opens its *default* label with DefaultPhase, which only
// pushes when no phase is active — so `mis_deterministic(g, ctx)` charges
// to "mis" standalone but to "phase1-matching" when called under that
// scope, and a caller that wants its own label opens a ScopedPhase around
// the call.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "local/faults.hpp"
#include "local/ledger.hpp"
#include "local/sync_runner.hpp"

namespace deltacolor {

class LocalContext {
 public:
  explicit LocalContext(RoundLedger& ledger, EngineOptions engine = {},
                        std::uint64_t seed = 1)
      : ledger_(&ledger), engine_(engine), seed_(seed) {}

  LocalContext(const LocalContext&) = delete;
  LocalContext& operator=(const LocalContext&) = delete;

  RoundLedger& ledger() const { return *ledger_; }
  const EngineOptions& engine() const { return engine_; }
  std::uint64_t seed() const { return seed_; }

  bool has_phase() const { return !stack_.empty(); }

  /// Innermost phase label. A phase must be active (primitives guarantee
  /// one via DefaultPhase before charging).
  std::string_view phase() const {
    DC_CHECK_MSG(!stack_.empty(), "LocalContext: no active phase");
    return stack_.back();
  }

  /// Charges rounds to the innermost phase.
  void charge(std::int64_t rounds, std::int64_t dilation = 1) {
    charge(phase(), rounds, dilation);
  }

  /// Charges rounds to `label`, for pipelines that book a named stretch
  /// (or a throwaway sub-ledger's total) directly. This is the fault
  /// probe: while a FaultInjector is armed, a matching phase spec throws
  /// or stalls here, and a round-budget spec inflates the charge — so the
  /// sweep driver's *real* budget enforcement trips, instead of a fake
  /// error path that never exercises the recovery code.
  void charge(std::string_view label, std::int64_t rounds,
              std::int64_t dilation = 1) {
    if (FaultInjector::armed())
      rounds += FaultInjector::global().on_phase_charge(label);
    ledger_->charge(label, rounds, dilation);
  }

 private:
  friend class ScopedPhase;
  friend class DefaultPhase;

  RoundLedger* ledger_;
  EngineOptions engine_;
  std::uint64_t seed_;
  std::vector<std::string> stack_;
};

/// Opens a phase for the duration of a scope (always pushes).
class ScopedPhase {
 public:
  ScopedPhase(LocalContext& ctx, std::string_view label) : ctx_(ctx) {
    ctx_.stack_.emplace_back(label);
  }
  ~ScopedPhase() { ctx_.stack_.pop_back(); }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  LocalContext& ctx_;
};

/// A primitive's entry-point phase: pushes `label` only when the caller
/// has not already opened a phase (explicit caller phases win over
/// primitive defaults).
class DefaultPhase {
 public:
  DefaultPhase(LocalContext& ctx, std::string_view label)
      : ctx_(ctx), pushed_(!ctx.has_phase()) {
    if (pushed_) ctx_.stack_.emplace_back(label);
  }
  ~DefaultPhase() {
    if (pushed_) ctx_.stack_.pop_back();
  }

  DefaultPhase(const DefaultPhase&) = delete;
  DefaultPhase& operator=(const DefaultPhase&) = delete;

 private:
  LocalContext& ctx_;
  bool pushed_;
};

}  // namespace deltacolor
