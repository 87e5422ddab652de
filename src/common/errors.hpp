// Structured error taxonomy for the robustness layer.
//
// The paper's guarantees only hold for runs that complete with their
// invariants intact, so the execution stack needs a vocabulary for the ways
// a run can fail that is richer than "some exception escaped": a sweep cell
// that blows its round budget is a different event from a corrupted
// coloring, and the recovery policy differs (re-run with a fresh seed vs
// quarantine and report). CellError is that vocabulary. Recoverable paths
// throw it instead of DC_CHECK-aborting; the SweepDriver catches it,
// classifies it, and applies the retry / quarantine policy (sweep.hpp).
// Anything else (std::exception) is wrapped as kEngineException, so the
// taxonomy is total over failures.
//
// ValidateMode lives here too: the opt-in oracle knob (off / end-of-run /
// between-pipeline-phases) shared by the CLI, the registry request, and the
// composed pipelines, which downgrade an invariant violation detected by
// the oracle into a structured CellError instead of a hard abort.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace deltacolor {

/// Failure taxonomy. kProcessKill never appears in a CellError — it is a
/// FaultInjector-only action (simulating a SIGKILL mid-sweep for the
/// journal/--resume round-trip tests).
enum class FaultCategory {
  kInvariantViolation,   ///< oracle found an improper partial/final coloring
  kRoundBudgetExceeded,  ///< cell consumed more simulated rounds than allowed
  kWallClockTimeout,     ///< cell exceeded its wall-clock deadline
  kEngineException,      ///< any other exception escaping the cell
  kProcessKill,          ///< injector-only: hard process exit (resume tests)
};

constexpr std::string_view to_string(FaultCategory c) {
  switch (c) {
    case FaultCategory::kInvariantViolation: return "invariant-violation";
    case FaultCategory::kRoundBudgetExceeded: return "round-budget-exceeded";
    case FaultCategory::kWallClockTimeout: return "wall-clock-timeout";
    case FaultCategory::kEngineException: return "engine-exception";
    case FaultCategory::kProcessKill: return "process-kill";
  }
  return "unknown";
}

/// Parses the names emitted by to_string(FaultCategory). Returns false and
/// leaves `out` untouched on unknown names.
inline bool parse_fault_category(std::string_view name, FaultCategory* out) {
  for (const FaultCategory c :
       {FaultCategory::kInvariantViolation, FaultCategory::kRoundBudgetExceeded,
        FaultCategory::kWallClockTimeout, FaultCategory::kEngineException,
        FaultCategory::kProcessKill}) {
    if (name == to_string(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

/// Opt-in validation oracle mode (see --validate in the dcolor CLI).
///  kOff:   no oracle checks beyond what algorithms already verify.
///  kEnd:   check the final object once and throw a structured CellError
///          (instead of setting a flag or CHECK-aborting) on violation.
///  kPhase: additionally run graph/checker partial-coloring invariants at
///          every composed-pipeline phase boundary.
enum class ValidateMode { kOff, kEnd, kPhase };

inline bool parse_validate_mode(std::string_view name, ValidateMode* out) {
  if (name == "off") *out = ValidateMode::kOff;
  else if (name == "end") *out = ValidateMode::kEnd;
  else if (name == "phase") *out = ValidateMode::kPhase;
  else return false;
  return true;
}

/// The coordinates recovery policies key on: which phase was active, which
/// node witnessed the violation (when known), and which seed the failing
/// attempt ran under (so a w.h.p. failure can be re-run with a perturbed
/// seed and the original remains reproducible). Namespace-scope (not
/// nested in CellError) so its member defaults are usable in CellError's
/// own signatures.
struct ErrorContext {
  std::string phase;        ///< innermost phase label ("" = unknown)
  std::int64_t node = -1;   ///< witness node (-1 = not node-specific)
  std::int64_t round = -1;  ///< engine round / ledger total (-1 = unknown)
  std::uint64_t seed = 0;   ///< seed of the failing attempt (0 = unknown)
};

/// A categorized cell failure.
class CellError : public std::runtime_error {
 public:
  using Context = ErrorContext;

  CellError(FaultCategory category, const std::string& detail,
            Context context = Context())
      : std::runtime_error(format(category, detail, context)),
        category_(category),
        context_(std::move(context)) {}

  FaultCategory category() const { return category_; }
  const Context& context() const { return context_; }

 private:
  static std::string format(FaultCategory category, const std::string& detail,
                            const Context& ctx) {
    std::ostringstream os;
    os << "CellError[" << to_string(category) << "]";
    if (!ctx.phase.empty()) os << " phase=" << ctx.phase;
    if (ctx.node >= 0) os << " node=" << ctx.node;
    if (ctx.round >= 0) os << " round=" << ctx.round;
    if (ctx.seed != 0) os << " seed=" << ctx.seed;
    if (!detail.empty()) os << ": " << detail;
    return os.str();
  }

  FaultCategory category_;
  Context context_;
};

}  // namespace deltacolor
