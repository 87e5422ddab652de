// Phase-boundary validation oracle for the composed coloring pipelines.
//
// Under --validate=phase, the deterministic and randomized pipelines call
// validate_partial_coloring() at each phase boundary: the partial coloring
// must be proper at every boundary (uncolored nodes ignored) — T-node
// pairs are placed non-adjacent, layers color against already-final
// neighbors, so a monochromatic edge mid-pipeline is always a bug, never a
// transient. A violation throws InvariantViolation carrying the phase
// label and a witness node — instead of surfacing only at the final
// DC_CHECK, n phases later and with the witness long gone. The checks
// charge no round, so colorings and ledgers match a kOff run.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/errors.hpp"
#include "graph/checker.hpp"
#include "graph/graph.hpp"

namespace deltacolor {

/// Checks the partial-coloring invariant at a phase boundary when `mode`
/// is kPhase (no-op otherwise). Throws InvariantViolation on a
/// monochromatic edge, naming its lower endpoint.
inline void validate_partial_coloring(const Graph& g,
                                      const std::vector<Color>& color,
                                      std::string_view phase,
                                      ValidateMode mode) {
  if (mode != ValidateMode::kPhase) return;
  if (const auto edge = find_partial_conflict(g, color))
    throw InvariantViolation(
        std::string(phase), static_cast<std::int64_t>(edge->first),
        "monochromatic edge (" + std::to_string(edge->first) + ", " +
            std::to_string(edge->second) + ") color " +
            std::to_string(color[edge->first]));
}

/// Final-coloring oracle for kEnd and kPhase: `valid` is the pipeline's
/// own checker verdict; a violation becomes InvariantViolation instead of
/// the DC_CHECK abort a kOff run takes.
inline void validate_final_coloring(const Graph& g,
                                    const std::vector<Color>& color,
                                    bool valid, std::string_view phase,
                                    ValidateMode mode) {
  if (mode == ValidateMode::kOff || valid) return;
  throw InvariantViolation(
      std::string(phase), -1,
      "final coloring invalid: " + check_coloring(g, color).describe());
}

}  // namespace deltacolor
