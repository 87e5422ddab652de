#include "primitives/mis.hpp"

#include <cstdint>
#include <span>

#include "local/sync_runner.hpp"
#include "primitives/color_reduction.hpp"
#include "primitives/linial.hpp"

namespace deltacolor {

std::vector<bool> mis_deterministic(const Graph& g, LocalContext& ctx) {
  DefaultPhase scope(ctx, "mis");
  const LinialResult lin = schedule_coloring(g, ctx);
  // One engine round per color class: a node joins unless a neighbor
  // already did. Same-class nodes are non-adjacent, so simultaneous joins
  // are safe and the double-buffered engine matches the sequential sweep.
  SyncRunner<std::uint8_t> runner(
      g, std::vector<std::uint8_t>(g.num_nodes(), 0), ctx.engine());
  const std::span<const Color> color(lin.color);
  const auto step = [color](const auto& v) -> std::uint8_t {
    if (v.self()) return 1;
    if (color[v.node()] != v.round()) return 0;
    bool blocked = false;
    v.for_each_neighbor([&](NodeId u) {
      if (v.neighbor(u)) blocked = true;
    });
    return blocked ? 0 : 1;
  };
  runner.run_rounds(lin.num_colors, step);
  const auto& states = runner.states();
  std::vector<bool> in_set(g.num_nodes(), false);
  for (NodeId v = 0; v < g.num_nodes(); ++v) in_set[v] = states[v] != 0;
  ctx.charge(lin.num_colors);
  return in_set;
}

}  // namespace deltacolor
