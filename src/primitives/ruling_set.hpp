// (2, beta)-ruling sets [Mau21, SEW13-role].
//
// Realized by the classic bit-peeling scheme over a Linial coloring: process
// the label bits from high to low; a candidate whose current bit is 0 and
// that has a candidate neighbor whose bit is 1 withdraws. Surviving
// candidates are independent (two adjacent survivors would share all label
// bits, contradicting properness), and every withdrawn node can charge a
// chain of length <= #bits to a survivor, so the domination radius is
// O(log(Delta^2)) = O(log Delta). Runs in O(log Delta + log* n) rounds.
//
// The construction is generic over any GraphView. Running it on the lazy
// PowerGraphView G^r (ruling_set_power) yields an (r+1, O(r log Delta))-
// ruling set of the host graph without ever materializing G^r: each
// virtual round costs r real rounds, charged via the view's dilation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "local/context.hpp"
#include "local/sync_runner.hpp"
#include "primitives/linial.hpp"

namespace deltacolor {

struct RulingSetResult {
  std::vector<bool> in_set;
  /// Upper bound on the domination radius guaranteed by the construction,
  /// in *host-graph* hops (= label bits peeled, times the view's dilation
  /// when run on a virtual graph). Benches/tests verify it.
  int domination_radius = 0;
};

/// (2, O(log Delta))-ruling set of the view. Nodes flagged true are
/// pairwise non-adjacent *in the view* and dominate it within
/// domination_radius / dilation view hops.
template <GraphView ViewT>
RulingSetResult ruling_set(const ViewT& view, LocalContext& ctx) {
  DefaultPhase scope(ctx, "ruling-set");
  RulingSetResult res;
  const NodeId n = view.num_nodes();
  res.in_set.assign(n, false);
  if (n == 0) return res;

  const LinialResult lin = linial_coloring(view, ctx);
  int bits = 1;
  while ((1 << bits) < lin.num_colors) ++bits;
  res.domination_radius = bits * view.dilation();

  // Engine round r peels bit (bits - 1 - r).
  SyncRunner<std::uint8_t, ViewT> runner(
      view, std::vector<std::uint8_t>(n, 1), ctx.engine());
  const std::span<const Color> label(lin.color);
  const auto step = [bits, label](const auto& v) -> std::uint8_t {
    if (!v.self()) return 0;
    const int b = bits - 1 - v.round();
    if (((label[v.node()] >> b) & 1) == 1) return 1;
    std::uint8_t survives = 1;
    v.for_each_neighbor([&](NodeId u) {
      if (v.neighbor(u) && ((label[u] >> b) & 1) == 1)
        survives = 0;  // a bit-1 candidate neighbor dominates v
    });
    return survives;
  };
  runner.run_rounds(bits, step);
  // Survivors are independent: adjacent survivors would agree on every bit,
  // i.e. share a Linial color — impossible for a proper coloring.
  const auto& states = runner.states();
  for (NodeId v = 0; v < n; ++v) res.in_set[v] = states[v] != 0;
  ctx.charge(bits, view.dilation());
  return res;
}

/// (r+1, O(r log Delta))-ruling set of g, computed on the lazy power-graph
/// view G^r (never materialized): members are pairwise at host distance
/// > r, and every node is within domination_radius host hops of a member.
RulingSetResult ruling_set_power(const Graph& g, int radius,
                                 LocalContext& ctx);

}  // namespace deltacolor
