// Coloring easy almost cliques and loopholes (Algorithm 3, Section 3.9).
//
//   1. Every loophole vertex votes for one of its loopholes -> set L.
//   2. Virtual graph G_L over L (edges between intersecting/adjacent
//      loopholes).
//   3. Ruling set on G_L selects pairwise non-adjacent loopholes.
//   4. BFS layering (through still-uncolored vertices) from the selected
//      loopholes; depth is adaptive (the paper's constant 25 presumes the
//      exact SEW13 ruling set; our bit-peeling ruling set has an
//      O(log Delta) domination radius, so the layer count follows it).
//   5. Layers are colored outside-in with one deg+1-list instance each —
//      a layer-i vertex keeps slack through its uncolored layer-(i-1)
//      neighbor.
//   6. The selected loopholes themselves are deg-list colorable (Lemma 7)
//      and are completed by the constructive solver below.
#pragma once

#include <string>
#include <vector>

#include "core/loopholes.hpp"
#include "graph/graph.hpp"
#include "local/context.hpp"

namespace deltacolor {

struct EasyColoringStats {
  int voted_loopholes = 0;
  int ruling_loopholes = 0;
  int layers = 0;
  int ruling_domination_radius = 0;
};

/// Completes the coloring of all still-uncolored vertices. Requires: every
/// uncolored vertex can reach a loophole of `loopholes` through uncolored
/// vertices (guaranteed when hard cliques are colored and every easy AC
/// intersects a detected loophole). Rounds charged to the context's ledger
/// under `phase`-prefixed labels; the context's EngineOptions propagate
/// into the nested ruling-set and deg+1-list engines.
EasyColoringStats color_easy_and_loopholes(const Graph& g,
                                           const LoopholeSet& loopholes,
                                           std::vector<Color>& color,
                                           LocalContext& lctx,
                                           const std::string& phase = "easy");

/// Constructive deg-list coloring of one loophole: every vertex of `l` gets
/// a color from {0..Delta-1} avoiding its already-colored neighbors.
/// Guaranteed to succeed by Lemma 7 (ERT79/Viz76) given the loophole
/// invariants; throws if the instance is not deg-list satisfiable.
/// Chordless even cycles take the constructive Lemma 7 route below;
/// chorded loopholes fall back to exhaustive search over the (<= 6 vertex)
/// subgraph.
void color_loophole(const Graph& g, const Loophole& l,
                    std::vector<Color>& color);

/// Constructive proof of Lemma 7 for chordless even cycles: colors vertex
/// i of a cycle (indices in cyclic order) from lists[i], every list of
/// size >= 2. Identical lists alternate their first two colors; otherwise
/// a color in list(u) \ list(next(u)) seeds a greedy sweep that ends at
/// next(u), whose conflict budget the seed color cannot touch. Returns
/// false only if some list has fewer than 2 colors or the length is odd
/// and all lists are identical of size 2 (the genuinely infeasible cases).
bool color_even_cycle_from_lists(const std::vector<std::vector<Color>>& lists,
                                 std::vector<Color>& out);

}  // namespace deltacolor
