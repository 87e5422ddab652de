#include "primitives/maximal_matching.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/checker.hpp"
#include "graph/graph_view.hpp"
#include "local/sync_runner.hpp"
#include "primitives/color_reduction.hpp"
#include "primitives/forest_coloring.hpp"
#include "primitives/linial.hpp"

namespace deltacolor {

namespace {
/// Real rounds per simulated line-graph round.
constexpr int kLineGraphDilation = 2;
}  // namespace

std::vector<bool> maximal_matching_deterministic(const Graph& g,
                                                 LocalContext& ctx) {
  DefaultPhase scope(ctx, "maximal-matching");
  std::vector<bool> in_matching(g.num_edges(), false);
  if (g.num_edges() == 0) return in_matching;

  // Proper edge coloring on the lazy line-graph view, reduced to 2*Delta-1
  // classes, then one virtual round per color class: an edge joins if no
  // adjacent edge (= line-graph neighbor = edge sharing an endpoint) did.
  // Edges of a class share no endpoint. The coloring rounds are recharged
  // below with their dilation already folded in, so the nested calls run
  // against a throwaway ledger.
  const LineGraphView line(g);
  RoundLedger ec_ledger;
  LocalContext ec_ctx(ec_ledger, ctx.engine(), ctx.seed());
  LinialResult ec = linial_edge_coloring(g, ec_ctx);
  {
    LinialResult reduced = kw_reduce(line, std::move(ec.color),
                                     ec.num_colors, line.max_degree() + 1,
                                     ec_ctx);
    reduced.rounds = ec.rounds + 2 * reduced.rounds;  // line-graph dilation
    ec = std::move(reduced);
  }

  SyncRunner<std::uint8_t, LineGraphView> runner(
      line, std::vector<std::uint8_t>(g.num_edges(), 0),
      ctx.round_indexed_engine());
  const auto step = [&](const auto& e) -> std::uint8_t {
    if (e.self()) return 1;
    if (ec.color[e.node()] != e.round()) return 0;
    bool blocked = false;
    e.for_each_neighbor([&](NodeId f) {
      if (e.neighbor(f)) blocked = true;
    });
    return blocked ? 0 : 1;
  };
  runner.run_rounds(ec.num_colors, step);
  const auto& states = runner.states();
  for (EdgeId e = 0; e < g.num_edges(); ++e) in_matching[e] = states[e] != 0;

  ctx.charge(ec.rounds);  // edge-coloring rounds (dilation inside)
  ctx.charge(ec.num_colors, kLineGraphDilation);
  return in_matching;
}

namespace {

/// Panconesi-Rizzi per-node engine state for the proposal rounds.
struct PrState {
  std::uint8_t matched = 0;
  NodeId proposal = kNoNode;  ///< forest parent this node proposed to
  NodeId accepted = kNoNode;  ///< smallest-id proposer this parent accepted
  EdgeId matched_edge = kNoEdge;
  bool operator==(const PrState&) const = default;
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

  // Sequential forests, one (forest, class) slot per 3 engine rounds:
  // propose (free class-c nodes point at their free forest parent), accept
  // (a parent picks its smallest-identifier proposer), commit (both sides
  // fold the handshake into their state — bookkeeping, not an extra
  // message, hence the 2-rounds-per-class charge below). The slot schedule
  // is round-indexed, so frontier mode is off.
  SyncRunner<PrState> runner(g, std::vector<PrState>(g.num_nodes()),
                             ctx.round_indexed_engine());
  const auto step = [&parent_in, &parent_edge, &forest_color,
                     &g](const auto& v) -> PrState {
    PrState s = v.self();
    const int slot = v.round() / 3;
    const std::size_t f = static_cast<std::size_t>(slot / 3);
    const Color cls = slot % 3;
    switch (v.round() % 3) {
      case 0: {  // propose
        s.proposal = kNoNode;
        if (s.matched || forest_color[f][v.node()] != cls) return s;
        const NodeId p = parent_in[f][v.node()];
        if (p != kNoNode && !v.neighbor(p).matched) s.proposal = p;
        return s;
      }
      case 1: {  // accept the smallest-identifier proposer
        s.accepted = kNoNode;
        v.for_each_neighbor([&](NodeId u) {
          if (parent_in[f][u] != v.node()) return;
          if (v.neighbor(u).proposal != v.node()) return;
          if (s.accepted == kNoNode || g.id(u) < g.id(s.accepted))
            s.accepted = u;
        });
        return s;
      }
      default: {  // commit
        if (s.accepted != kNoNode) {  // parent side of a handshake
          s.matched = 1;
          s.accepted = kNoNode;
          s.proposal = kNoNode;
          return s;
        }
        if (s.proposal != kNoNode) {  // child side: did the parent accept?
          if (v.neighbor(s.proposal).accepted == v.node()) {
            s.matched = 1;
            s.matched_edge = parent_edge[f][v.node()];
          }
          s.proposal = kNoNode;
        }
        return s;
      }
    }
  };
  runner.run_rounds(3 * 3 * delta, step);
  const auto& states = runner.states();
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (states[v].matched_edge != kNoEdge)
      in_matching[states[v].matched_edge] = true;

  ctx.charge(2 * 3 * delta);  // propose + accept per class
  DC_DCHECK(is_matching(g, in_matching));
  return in_matching;
}

}  // namespace deltacolor
