// (deg+1)-list coloring [MT20-role; realized as class-greedy over a Linial
// coloring, O(Delta^2 + log* n) rounds].
//
// Instance semantics (Section 2 of the paper): a set of *active* nodes must
// be colored; every active node v must have an allowed list whose colors,
// after removing the colors of already-colored neighbors, number at least
// (number of active neighbors of v) + 1. Under this precondition the
// class-greedy schedule always finds a free color.
//
// One pass over the host checks the precondition and collects the
// ascending list of active nodes; every stage of the schedule and the
// sweep walks that list (the schedule's host-indexed state arrays are
// still allocated and filled once per call). The deterministic schedule
// (Linial, then Kuhn-Wattenhofer) colors the subgraph the list induces
// while stepping the host graph with host-indexed states (nothing is
// materialized or re-indexed), and the class sweep steps through the
// SyncRunner engine as keyed rounds over the same list. Lists live in flat
// CSR storage (ColorLists); the per-step exclusion set is one 64-bit word
// for palettes of at most 64 colors and a word-parallel PaletteSet
// (palette.hpp) above that — the steady-state sweep performs no heap
// allocation and no sorting.
#pragma once

#include <vector>

#include "common/palette.hpp"
#include "graph/graph.hpp"
#include "local/context.hpp"

namespace deltacolor {

/// Deterministically colors all nodes with active[v] != 0. `color` holds
/// the global partial coloring and is extended in place; `lists[v]` is the
/// allowed palette of active node v (entries for inactive nodes ignored).
/// The deg+1 precondition is checked (throws on violation). Returns the
/// number of LOCAL rounds consumed (also charged to the context's phase,
/// default "deg+1-list").
int deg_plus_one_list_color(const Graph& g, const NodeMask& active,
                            const ColorLists& lists,
                            std::vector<Color>& color, LocalContext& ctx);

/// Builds the default (Delta+1)-coloring lists {0..Delta} for every node.
ColorLists uniform_lists(const Graph& g, int num_colors);

}  // namespace deltacolor
