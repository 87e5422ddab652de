// Maximal matching [PR01-role]: deterministic class-greedy over a Linial
// coloring of the line graph (each line-graph round dilates to 2 real
// rounds: the two endpoints of an edge hold its state and sync over the
// edge) and the Panconesi-Rizzi forest-decomposition algorithm.
//
// Both variants step through the SyncRunner engine via LocalContext; the
// class-greedy variant runs its palette reduction and class sweep directly
// on the lazy LineGraphView.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "local/context.hpp"

namespace deltacolor {

/// Flags by EdgeId; a maximal matching of g. Default phase
/// "maximal-matching".
std::vector<bool> maximal_matching_deterministic(const Graph& g,
                                                 LocalContext& ctx);

/// Panconesi-Rizzi maximal matching in O(Delta + log* n) rounds: orient
/// every edge toward its higher-identifier endpoint, split the out-edges
/// into <= Delta rooted forests (the i-th out-edge of every node forms
/// forest i; identifiers increase along edges, so each forest is acyclic),
/// 3-color all forests at once with Cole-Vishkin, then process forests
/// sequentially — within a forest, one two-round slot per color class (a
/// free parent accepts its smallest-identifier free child of that class,
/// then that child commits) leaves no free tree edge. Default phase
/// "maximal-matching-pr".
std::vector<bool> maximal_matching_pr(const Graph& g, LocalContext& ctx);

}  // namespace deltacolor
