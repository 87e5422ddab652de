// Kuhn-Wattenhofer color reduction: from any proper k-coloring to a proper
// `target`-coloring (target >= Delta + 1) in O(Delta * log(k/Delta))
// rounds.
//
// One stage partitions the palette into groups of 2*target consecutive
// colors. Within every group, in parallel across groups, the upper target
// colors are eliminated one per round: all holders of the eliminated color
// (an independent set) simultaneously move to a free color among the
// group's lower `target` colors — at most Delta of those are blocked by
// neighbors, and only neighbors inside the same group matter. A stage
// halves the palette at the cost of `target` rounds; after O(log(k/target))
// stages the palette is `target`.
//
// Used to shrink Linial's O(Delta^2) palette before class-greedy sweeps,
// turning their round cost from O(Delta^2) into O(Delta log Delta).
//
// Generic over any GraphView: the same engine-stepped implementation runs
// on host graphs and on the lazy LineGraphView (edge-coloring reduction).
// Each elimination round is one SyncRunner round; since holders of the
// eliminated color form an independent set, double-buffered reads equal
// the sequential in-place update, so results match the pre-engine code
// bit for bit at any worker count. A node acts at most once per stage — in
// the round that eliminates its offset — so stages run as keyed rounds
// (SyncRunner::run_keyed) that step only that round's holders.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "local/context.hpp"
#include "local/sync_runner.hpp"
#include "primitives/linial.hpp"

namespace deltacolor {

/// Generic reduction over any GraphView. `color` must be a proper coloring
/// of the view with values in [0, num_colors). Charges the elimination
/// rounds (times view.dilation()) to the active phase ("kw-reduce" when the
/// caller opened none).
template <GraphView ViewT>
LinialResult kw_reduce(const ViewT& view, std::vector<Color> color,
                       int num_colors, int target, LocalContext& ctx) {
  DefaultPhase scope(ctx, "kw-reduce");
  const int max_degree = view.max_degree();
  DC_CHECK_MSG(target >= max_degree + 1,
               "KW reduction target " << target << " below Delta+1 = "
                                      << max_degree + 1);
  DC_CHECK(target <= 1024);  // fixed scratch bound in the step below
  LinialResult res;

  SyncRunner<Color, ViewT> runner(view, std::move(color), ctx.engine());
  std::atomic<bool> failed{false};

  int k = num_colors;
  while (k > target) {
    const int group_size = 2 * target;
    const int hi = std::min(group_size, k);  // offsets >= k are held nowhere
    // Eliminate group-local colors [target, hi), top first, one round each
    // (lockstep across groups): engine round r handles offset hi - 1 - r.
    // A moved node's new offset is below target, so the round of its entry
    // offset is the only one in which it acts.
    const auto key = [hi, group_size, target](NodeId, Color c) {
      const int offset = c % group_size;
      return offset >= target && offset < hi ? hi - 1 - offset : -1;
    };
    const auto step = [hi, group_size, target,
                       &failed](const auto& v) -> Color {
      const Color c = v.self();
      const int offset = hi - 1 - v.round();
      if (c % group_size != offset) return c;
      const Color group_base = c - offset;
      // Word-parallel "first free group-local color": mark neighbor-held
      // offsets in a fixed 16-word bitset, then ctz the first word with a
      // clear bit below `target` — the same index the old per-bool linear
      // scan produced, at 64 colors per iteration.
      std::uint64_t used[1024 / 64];
      const int words = (target + 63) / 64;
      for (int w = 0; w < words; ++w) used[w] = 0;
      v.for_each_neighbor([&](NodeId u) {
        const Color cu = v.neighbor(u);
        if (cu >= group_base && cu < group_base + target)
          used[(cu - group_base) >> 6] |=
              std::uint64_t{1} << ((cu - group_base) & 63);
      });
      for (int w = 0; w < words; ++w) {
        std::uint64_t free_mask = ~used[w];
        if (w == words - 1 && target % 64 != 0)
          free_mask &= (std::uint64_t{1} << (target % 64)) - 1;
        if (free_mask != 0)
          return group_base + w * 64 + __builtin_ctzll(free_mask);
      }
      // Workers must not throw (ThreadPool does not propagate); flag and
      // re-check on the main thread after the stage.
      failed.store(true, std::memory_order_relaxed);
      return c;
    };
    const int stage_rounds = hi - target;
    runner.run_keyed(stage_rounds, key, step);
    DC_CHECK_MSG(!failed.load(std::memory_order_relaxed),
                 "KW: no free color during elimination");
    res.rounds += stage_rounds;
    // Compact: group g's surviving colors [g*2t, g*2t + t) -> [g*t, (g+1)*t)
    // — a zero-round renaming (pure local computation).
    runner.mutate_states([group_size, target](Color c) {
      return (c / group_size) * target + (c % group_size);
    });
    k = ((k + group_size - 1) / group_size) * target;
  }
  res.color = runner.take_states();
  res.num_colors = std::min(k, num_colors);
  ctx.charge(res.rounds, view.dilation());
  return res;
}

/// Linial followed by KW down to max_degree()+1 colors: a proper
/// (Delta+1)-coloring of the view in O(Delta log Delta + log* n) rounds —
/// the schedule generator used by the class-greedy subroutines. Default
/// phase "schedule".
template <GraphView ViewT>
LinialResult schedule_coloring(const ViewT& view, LocalContext& ctx) {
  DefaultPhase scope(ctx, "schedule");
  const LinialResult lin = linial_coloring(view, ctx);
  if (view.num_nodes() == 0) return lin;
  LinialResult res = kw_reduce(view, lin.color, lin.num_colors,
                               view.max_degree() + 1, ctx);
  res.rounds += lin.rounds;
  return res;
}

}  // namespace deltacolor
