#include "primitives/maximal_matching.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/checker.hpp"
#include "local/sync_runner.hpp"
#include "primitives/forest_coloring.hpp"

namespace deltacolor {

namespace {

/// Panconesi-Rizzi per-node engine state for the matching slots.
struct PrState {
  std::uint8_t matched = 0;
  NodeId accepted = kNoNode;  ///< the child this node matched as a parent
  EdgeId matched_edge = kNoEdge;  ///< set on the child side of a match
};

}  // namespace

std::vector<bool> maximal_matching_pr(const Graph& g, LocalContext& ctx) {
  DefaultPhase scope(ctx, "maximal-matching-pr");
  std::vector<bool> in_matching(g.num_edges(), false);
  if (g.num_edges() == 0) return in_matching;
  const int delta = g.max_degree();

  // Forest decomposition: v's i-th higher-identifier neighbor is its
  // parent in forest i. Identifiers strictly increase along parent edges,
  // so every forest is acyclic.
  std::vector<std::vector<NodeId>> parent_in(
      static_cast<std::size_t>(delta),
      std::vector<NodeId>(g.num_nodes(), kNoNode));
  std::vector<std::vector<EdgeId>> parent_edge(
      static_cast<std::size_t>(delta),
      std::vector<EdgeId>(g.num_nodes(), kNoEdge));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    int i = 0;
    const auto nbrs = g.neighbors(v);
    const auto inc = g.incident_edges(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (g.id(nbrs[k]) < g.id(v)) continue;
      parent_in[static_cast<std::size_t>(i)][v] = nbrs[k];
      parent_edge[static_cast<std::size_t>(i)][v] = inc[k];
      ++i;
    }
  }

  // 3-color every forest; all reductions run in parallel, so the round
  // cost is a single O(log* n) term (charged as the max).
  std::vector<std::uint64_t> ids(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = g.id(v);
  std::vector<std::vector<Color>> forest_color(
      static_cast<std::size_t>(delta));
  int coloring_rounds = 0;
  for (int f = 0; f < delta; ++f) {
    RoundLedger forest_ledger;
    LocalContext forest_ctx(forest_ledger, ctx.engine(), ctx.seed());
    const ForestColoringResult fc = forest_3_coloring(
        parent_in[static_cast<std::size_t>(f)], ids, forest_ctx);
    forest_color[static_cast<std::size_t>(f)] = fc.color;
    coloring_rounds = std::max(coloring_rounds, fc.rounds);
  }
  ctx.charge(1 + coloring_rounds);  // orientation + parallel CV

  // child_classes[f][v]: bit c set iff v has a class-c child in forest f.
  // It only narrows which nodes a slot steps: a parent without a class-c
  // child would accept nobody there.
  std::vector<std::vector<std::uint8_t>> child_classes(
      static_cast<std::size_t>(delta),
      std::vector<std::uint8_t>(g.num_nodes(), 0));
  for (std::size_t f = 0; f < static_cast<std::size_t>(delta); ++f)
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const NodeId p = parent_in[f][v];
      if (p == kNoNode) continue;
      DC_DCHECK(forest_color[f][v] != forest_color[f][p]);
      child_classes[f][p] |=
          static_cast<std::uint8_t>(1u << forest_color[f][v]);
    }

  // Sequential forests, one (forest, class) slot per 2 engine rounds, in
  // which each node acts at most once. Round 0 (accept): a free parent
  // with a class-c child picks its smallest-identifier free class-c child
  // and marks itself matched. That child's proposal is a function of its
  // state at the slot's start, which the parent reads directly, so no
  // separate proposal round is simulated. Round 1 (commit): a free class-c
  // child commits if its parent accepted it. A proper coloring keeps the
  // two sides apart: a class-c node has no class-c child.
  SyncRunner<PrState> runner(g, std::vector<PrState>(g.num_nodes()),
                             ctx.engine());
  for (std::size_t f = 0; f < static_cast<std::size_t>(delta); ++f) {
    for (Color cls = 0; cls < 3; ++cls) {
      // Round 0 for a free parent of a class-c child, round 1 for a free
      // class-c child with a parent, -1 otherwise. Branch-free on purpose:
      // the engine evaluates the key once per node in node order, and the
      // roles follow no pattern along it, so an if-chain mispredicts on
      // most nodes.
      const auto key = [&](NodeId v, const PrState& s) {
        const int parent = (child_classes[f][v] >> cls) & 1;
        const int child =
            (forest_color[f][v] == cls) & (parent_in[f][v] != kNoNode);
        const int acts = (s.matched ^ 1) & (parent | child);
        return acts * (2 - parent) - 1;
      };
      const auto step = [&](const auto& v) -> PrState {
        PrState s = v.self();
        if (v.round() == 0) {  // accept the smallest-identifier child
          v.for_each_neighbor([&](NodeId u) {
            if (parent_in[f][u] != v.node() || forest_color[f][u] != cls ||
                v.neighbor(u).matched)
              return;
            if (s.accepted == kNoNode || g.id(u) < g.id(s.accepted))
              s.accepted = u;
          });
          if (s.accepted != kNoNode) s.matched = 1;
        } else if (v.neighbor(parent_in[f][v.node()]).accepted == v.node()) {
          s.matched = 1;
          s.matched_edge = parent_edge[f][v.node()];
        }
        return s;
      };
      runner.run_keyed(2, key, step);
    }
  }
  const auto& states = runner.states();
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (states[v].matched_edge != kNoEdge)
      in_matching[states[v].matched_edge] = true;

  ctx.charge(2 * 3 * delta);  // two rounds per (forest, class) slot
  DC_DCHECK(is_matching(g, in_matching));
  return in_matching;
}

}  // namespace deltacolor
