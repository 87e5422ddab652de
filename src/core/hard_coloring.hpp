// Coloring the vertices of hard cliques (Algorithm 2, Sections 3.2-3.8).
//
// Phase 1 (balanced matching): maximal matching F1 on the edges between
//   hard cliques; every clique of C_HEG partitions into K sub-cliques, each
//   member proposes to grab a nearby F1 edge (the function f / phi of
//   Section 3.3), and a hyperedge-grabbing instance assigns each sub-clique
//   one exclusive edge, which is rearranged into the oriented matching F2
//   (Lemma 12: >= K outgoing edges per C_HEG clique).
// Phase 2 (sparsification): degree splitting on the virtual multigraph G_Q
//   thins F2 to F3 with exactly 2 outgoing edges per clique and bounded
//   incoming edges (Lemma 13).
// Phase 3 (slack triads): the two outgoing edges of each clique define a
//   slack triad (u, {v, w}) — slack vertex u, non-adjacent slack pair
//   (Lemma 15: triads are vertex disjoint).
// Phase 4A (slack pairs): the virtual conflict graph G_V over slack pairs
//   has maximum degree <= Delta - 2 (Lemma 16) and is colored by one
//   deg+1-list instance; both pair members receive the pair's color,
//   granting the slack vertex permanent slack.
// Phase 4B: the remaining hard vertices are colored by two deg+1-list
//   instances (Lemma 17), exploiting the uncolored slack vertex (Type I+),
//   a designated vertex with an easy neighbor (Type II), and the easy
//   cliques being colored later.
//
// Every structural lemma consumed by the phases is re-checked at runtime;
// a check that fails *constructively* (it certifies a loophole the
// detector missed, possible only for multi-cross-edge instances) is
// reported through `demotions` so the caller can reclassify and retry.
#pragma once

#include <cstdint>
#include <vector>

#include "acd/acd.hpp"
#include "common/palette.hpp"
#include "core/hardness.hpp"
#include "core/loopholes.hpp"
#include "core/trace.hpp"
#include "graph/graph.hpp"
#include "local/context.hpp"

namespace deltacolor {

struct HardColoringParams {
  /// Sub-cliques per C_HEG clique (paper: 28). Scaled down automatically
  /// for small cliques when scale_for_delta is set.
  int subclique_count = kSubCliqueCount;
  /// Degree-splitting recursion depth i (paper: 2, i.e. 4 parts).
  int split_levels = 2;
  /// Segment length ~ 1/epsilon' of the splitter (paper: epsilon' = 1/100).
  int split_segment_length = 100;
  std::uint64_t seed = 1;
  /// Smallest color slack pairs may use (0 deterministic; 1 in the
  /// randomized algorithm where color 0 is reserved for T-node pairs).
  Color palette_floor = 0;
  bool scale_for_delta = true;
  /// Palette size; -1 = use g.max_degree(). The randomized post-shattering
  /// phase colors induced components whose local maximum degree is below
  /// the global Delta.
  int delta_override = -1;
  /// Section 4 ("useless vertices"): tolerate members without a cross
  /// neighbor in a hard clique — they simply send no proposal — instead of
  /// demoting the clique to Type II. Used by the randomized variant where
  /// such members' external neighbors are pre-colored T-node pairs.
  bool allow_useless = false;
  /// Optional per-node allowed lists for the Phase 4B instances (empty =
  /// the full palette {0..Delta-1}). The randomized variant bans colors of
  /// neighbors outside the component here. Flat CSR storage; nested
  /// vectors convert implicitly.
  ColorLists node_lists;
  /// Optional artifact capture (F1/F2/F3, triads, pair colors).
  PipelineTrace* trace = nullptr;
};

struct HardColoringStats {
  int num_hard = 0;
  int num_heg_cliques = 0;  ///< |C_HEG|
  int type1 = 0;            ///< Lemma 12 Type I  (>= K outgoing in F2)
  int type2 = 0;            ///< Lemma 12 Type II (adjacent easy AC)
  int f1_edges = 0, f2_edges = 0, f3_edges = 0;
  // HEG instance shape (Lemma 11 / bench E3).
  int heg_vertices = 0, heg_hyperedges = 0;
  int heg_min_degree = 0, heg_rank = 0;
  double heg_ratio = 0.0;  ///< delta_H / r_H
  bool heg_complete = false;
  int heg_rounds = 0;
  // Matching balance (Lemma 12 / 13; bench E4).
  int min_outgoing_f2 = 0;  ///< over C_HEG cliques
  int min_outgoing_f3 = 0, max_incoming_f3 = 0;
  int split_fallbacks = 0;  ///< cliques topped back up from F2
  // Slack triads (Lemma 15 / 16; bench E5).
  int num_triads = 0;
  int dropped_triads = 0;
  int max_slack_pairs_per_clique = 0;
  int max_gv_degree = -1;
  bool lemma11_ok = false, lemma13_ok = false, lemma16_ok = false;
};

struct HardColoringOutcome {
  HardColoringStats stats;
  /// Constructive loopholes discovered by runtime checks; when non-empty
  /// the coloring was aborted and the caller must merge these, reclassify
  /// hardness, and call again.
  std::vector<Loophole> demotions;
  bool retry_needed() const { return !demotions.empty(); }
};

/// Colors every hard-clique vertex of g into `color` (entries must be
/// kNoColor on entry for hard vertices). Easy-clique vertices are left
/// uncolored — Algorithm 1 line 3 colors them afterwards. Rounds charged
/// to the context's ledger under "phase1".."phase4" labels; the context's
/// EngineOptions propagate into every nested engine-stepped primitive.
HardColoringOutcome color_hard_cliques(const Graph& g, const Acd& acd,
                                       const Hardness& hardness,
                                       std::vector<Color>& color,
                                       const HardColoringParams& params,
                                       LocalContext& lctx);

}  // namespace deltacolor
