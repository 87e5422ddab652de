// The deterministic Delta-coloring algorithm for dense graphs (Theorem 1 /
// Algorithm 1): ACD -> loophole detection -> hard/easy classification ->
// hard cliques (Algorithm 2) -> easy cliques and loopholes (Algorithm 3).
//
// This is the library's primary public entry point.
#pragma once

#include <string>
#include <vector>

#include "acd/acd.hpp"
#include "common/errors.hpp"
#include "core/easy_coloring.hpp"
#include "core/hard_coloring.hpp"
#include "graph/graph.hpp"
#include "local/context.hpp"
#include "local/ledger.hpp"

namespace deltacolor {

struct DeltaColoringOptions {
  AcdParams acd;
  HardColoringParams hard;
  /// Execution-layer options (worker threads) threaded into every
  /// engine-stepped subroutine via LocalContext. Purely about *how* the
  /// simulation executes — the coloring is bit-identical across settings.
  EngineOptions engine;
  /// Opt-in validation oracle (errors.hpp): kEnd turns a final-checker
  /// failure into an InvariantViolation (instead of the DC_CHECK abort);
  /// kPhase additionally checks the partial coloring at every pipeline
  /// phase boundary. The checks charge no round, so every mode gives the
  /// same coloring and ledger.
  ValidateMode validate = ValidateMode::kOff;
  /// Maximum demotion retries (phi-collision witnesses re-classifying a
  /// clique as easy; only reachable on multi-cross-edge instances).
  int max_retries = 8;
};

struct DeltaColoringResult {
  std::vector<Color> color;
  RoundLedger ledger;

  bool dense = false;  ///< ACD found no sparse vertices (Definition 4)
  bool valid = false;  ///< final coloring is a proper Delta-coloring
  int delta = 0;
  int num_cliques = 0;
  int num_hard = 0, num_easy = 0;
  int demotion_retries = 0;
  HardColoringStats hard_stats;
  EasyColoringStats easy_stats;

  std::string summary() const;
};

/// Runs Algorithm 1 end to end. Throws std::logic_error if the graph is
/// not dense under the configured epsilon (use the ACD first to check) or
/// if a structural invariant fails without a constructive repair.
DeltaColoringResult delta_color_dense(const Graph& g,
                                      const DeltaColoringOptions& options = {});

/// Convenience: options tuned for moderate Delta (epsilon and eta scaled so
/// that Delta-clique blow-up instances at Delta in [8, 63) classify dense;
/// the paper's constants assume Delta >= 63).
DeltaColoringOptions scaled_options(int delta);

}  // namespace deltacolor
