// Randomized T-node placement: the pre-shattering step of Algorithm 4.
//
// Internal to randomized_delta_color (and its differential test). Every
// hard clique repeatedly tries to place a T-node — a slack vertex u, a
// pair partner v inside the clique adjacent to u, and a pair partner w
// outside it adjacent to u but not to v. Accepted pairs are colored
// kTnodeColor, so they must be pairwise non-adjacent; future pair vertices
// keep distance `spacing` from accepted ones (the paper's b).
//
// The kernel is clique-local. Before the first round it builds, for each
// hard clique, tables over the clique's member slots (slot i is
// acd.cliques[c][i]):
//   - adj: per member, the in-clique adjacency as a bitmask over slots
//     (ceil(|C| / 64) words — ACD cliques can exceed 64 members);
//   - ext: per member, its external neighbors (clique_of != c) in
//     adjacency order, each with the index of its touch mask;
//   - touch: per distinct external vertex, the mask of members it touches.
// One status byte per node carries everything an attempt filters on
// (pair-blocked, slack, colored, loophole member, next to a pair), so an
// attempt is: draw u; filter u's external slice by status, draw w; form
// inner = adj(u) & available(C) & ~touch(w); draw v as the k-th set bit of
// inner; test the pair clash with two byte reads. No adjacency search and
// no allocation per attempt. The tables are freed on return.
//
// Bit-identity: each attempt makes the draws of the transcribed loop in
// test_randomized.cpp, with the same bounds and in the same order — u from
// |C|; w only when the filtered external list is non-empty; v only when
// inner is non-empty, indexing inner in member order.
#pragma once

#include <cstdint>
#include <vector>

#include "acd/acd.hpp"
#include "common/rng.hpp"
#include "core/loopholes.hpp"
#include "graph/graph.hpp"

namespace deltacolor {

/// Reserved same-color for all T-node slack pairs (Section 4 uses "the
/// first color").
inline constexpr Color kTnodeColor = 0;

struct TnodeTriad {
  NodeId slack = kNoNode;
  NodeId pair_in = kNoNode;   ///< v, inside the clique
  NodeId pair_out = kNoNode;  ///< w, outside
};

struct TnodePlacement {
  std::vector<TnodeTriad> triad_of_clique;  ///< per AC; set where placed
  NodeMask placed;                          ///< per AC
  NodeMask slack_used;                      ///< per node: a placed slack u
  NodeMask pair_blocked;  ///< per node: within `spacing` of a placed pair
};

/// Runs `rounds` placement rounds over the cliques listed in `hard_acs`.
/// Each round visits the not-yet-placed cliques in the order of
/// hash_mix(seed, c, round) and gives each up to 20 attempts, drawing from
/// `rng`. Accepted pairs are written into `color` as kTnodeColor; entries
/// already colored on entry are never chosen, and entries already colored
/// kTnodeColor count as pairs for the clash test. External candidates w
/// must not be loophole members. Cliques must be non-empty.
TnodePlacement place_tnodes(const Graph& g, const Acd& acd,
                            const LoopholeSet& loopholes,
                            const std::vector<int>& hard_acs, int rounds,
                            int spacing, std::uint64_t seed, Rng& rng,
                            std::vector<Color>& color);

}  // namespace deltacolor
