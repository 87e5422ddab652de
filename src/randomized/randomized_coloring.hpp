// Randomized Delta-coloring of dense graphs (Theorem 2 / Algorithm 4):
// shattering with randomly placed T-nodes (slack triads), the modified
// deterministic algorithm on the shattered components, and post-processing.
//
//   1. ACD, loophole detection, hard/easy classification (as Theorem 1).
//   2. Guard: for Delta = omega(log^21 n) the paper delegates to the
//      O(log* n) algorithm of [FHM23]; unreachable at simulation scale, so
//      the branch is detected and reported only.
//   3. Pre-shattering: every hard clique repeatedly (O(log Delta) retry
//      rounds with fresh randomness) attempts to place a T-node — a slack
//      triad whose pair is colored with the reserved color 0. Accepted
//      pairs are pairwise non-adjacent, and a later pair vertex lies at
//      distance > b from every earlier one, bounding the "useless"
//      vertices per clique (Section 4). See tnode_placement.hpp.
//   4. Post-shattering: cliques that failed all retries form components in
//      the clique-adjacency graph; each component is colored by the
//      modified deterministic pipeline (extended pseudo-loopholes =
//      vertices with an uncolored neighbor outside the component or two
//      same-colored neighbors; slack-pair color space {1..Delta-1};
//      tolerated useless vertices). Components run in parallel in LOCAL:
//      the round cost charged is the maximum over components.
//   5. Post-processing: bodies of successful cliques (deg+1 instances
//      exploiting the uncolored slack vertex), then the slack vertices
//      (two same-colored neighbors), then easy cliques and loopholes via
//      Algorithm 3.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "acd/acd.hpp"
#include "common/errors.hpp"
#include "core/delta_coloring.hpp"
#include "graph/graph.hpp"
#include "local/ledger.hpp"

namespace deltacolor {

struct RandomizedOptions {
  AcdParams acd;
  HardColoringParams hard;  ///< used for the post-shattering components
  /// Execution-layer options (worker threads) threaded into every
  /// engine-stepped subroutine; results are bit-identical across settings.
  EngineOptions engine;
  std::uint64_t seed = 1;
  /// T-node spacing parameter b (Section 4): future pair vertices lie at
  /// distance > b from accepted pairs, bounding useless vertices per
  /// clique. Constant, adjustable.
  int spacing = 0;
  /// Retry rounds for T-node placement; failure probability decays
  /// geometrically per round.
  int placement_rounds = 6;
  /// Constant BFS depth of the coverage layers around slack vertices; the
  /// uncovered remainder forms the shattered components.
  int layer_depth = 3;
  /// Opt-in validation oracle (errors.hpp): kEnd turns a final-checker
  /// failure into a structured invariant-violation CellError; kPhase
  /// additionally checks the partial coloring after pre-shattering,
  /// post-shattering, post-processing, and the easy phase (the partial
  /// coloring stays proper throughout — T-node pairs are non-adjacent).
  ValidateMode validate = ValidateMode::kOff;
};

struct RandomizedStats {
  int num_hard = 0, num_easy = 0;
  int tnodes_placed = 0;
  int failed_cliques = 0;
  int components = 0;
  int max_component_vertices = 0;
  int max_component_rounds = 0;  ///< post-shattering cost (parallel max)
  bool fhm23_branch = false;     ///< Delta = omega(log^21 n) guard fired
};

struct RandomizedResult {
  std::vector<Color> color;
  RoundLedger ledger;
  bool dense = false;
  bool valid = false;
  int delta = 0;
  RandomizedStats stats;
};

RandomizedResult randomized_delta_color(const Graph& g,
                                        const RandomizedOptions& options = {});

/// Options with epsilon/eta scaled for moderate Delta (like
/// scaled_options() for the deterministic algorithm).
RandomizedOptions scaled_randomized_options(int delta, std::uint64_t seed = 1);

}  // namespace deltacolor
