// The library's structured errors. The --validate oracle's vocabulary:
// the mode knob (off / end-of-run / between-pipeline-phases) shared by the
// CLI, the registry request and the composed pipelines, and the structured
// error the oracle throws when it finds an improper coloring
// (local/oracle.hpp). DC_CHECK stays the contract-violation path;
// InvariantViolation is what a run under --validate=end|phase raises
// instead of a hard abort, naming the phase that broke the invariant and a
// witness node. DomainError is what a well-formed input outside the
// algorithms' domain raises, before any coloring starts.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace deltacolor {

/// Opt-in validation oracle mode (see --validate in the dcolor CLI).
///  kOff:   no oracle checks beyond what algorithms already verify.
///  kEnd:   check the final object once and throw InvariantViolation
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

/// The oracle found an improper (partial) coloring. what() reads
/// "invariant-violation phase=<phase>[ node=<node>]: <detail>".
class InvariantViolation : public std::runtime_error {
 public:
  InvariantViolation(std::string phase, std::int64_t node,
                     const std::string& detail)
      : std::runtime_error(
            "invariant-violation phase=" + phase +
            (node >= 0 ? " node=" + std::to_string(node) : std::string()) +
            ": " + detail),
        phase_(std::move(phase)),
        node_(node) {}

  /// Pipeline phase whose boundary check failed ("final" for the end check).
  const std::string& phase() const { return phase_; }
  /// Witness node, or -1 when the violation names none.
  std::int64_t node() const { return node_; }

 private:
  std::string phase_;
  std::int64_t node_;
};

/// The input lies outside the algorithm's domain, or has no Delta-coloring
/// at all (dcolor's exit code 5). what() reads
/// "domain-error reason=<reason>: <detail>".
class DomainError : public std::runtime_error {
 public:
  enum class Reason {
    kLowDegree,        ///< Delta < 3
    kNotDense,         ///< sparse vertices (Definition 4)
    kCliqueComponent,  ///< a K_{Delta+1} component, which Brooks excludes
    kBrooksException,  ///< brooks_coloring found a K_{Delta+1} or odd cycle
  };

  DomainError(Reason reason, const std::string& detail)
      : std::runtime_error("domain-error reason=" +
                           std::string(reason_name(reason)) + ": " + detail),
        reason_(reason) {}

  Reason reason() const { return reason_; }

  static std::string_view reason_name(Reason reason) {
    switch (reason) {
      case Reason::kLowDegree: return "low-degree";
      case Reason::kNotDense: return "not-dense";
      case Reason::kCliqueComponent: return "clique-component";
      case Reason::kBrooksException: return "brooks-exception";
    }
    return "unknown";
  }

 private:
  Reason reason_;
};

}  // namespace deltacolor
