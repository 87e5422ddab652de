// Maximal matching [PR01]: the Panconesi-Rizzi forest-decomposition
// algorithm, det's T_MM = O(Delta + log* n) in Theorem 1. It steps through
// the SyncRunner engine via LocalContext: Cole-Vishkin on the forests, then
// keyed rounds on the host graph for the matching slots.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "local/context.hpp"

namespace deltacolor {

/// Flags by EdgeId; a maximal matching of g in O(Delta + log* n) rounds.
/// Orient every edge toward its higher-identifier endpoint, split the
/// out-edges into <= Delta rooted forests (the i-th out-edge of every node
/// forms forest i; identifiers increase along edges, so each forest is
/// acyclic), 3-color all forests at once with Cole-Vishkin, then process
/// forests sequentially — within a forest, one two-round slot per color
/// class (a free parent accepts its smallest-identifier free child of that
/// class, then that child commits) leaves no free tree edge. Default phase
/// "maximal-matching-pr".
std::vector<bool> maximal_matching_pr(const Graph& g, LocalContext& ctx);

}  // namespace deltacolor
