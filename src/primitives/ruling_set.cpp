#include "primitives/ruling_set.hpp"

#include <cstdint>
#include <span>

#include "local/sync_runner.hpp"
#include "primitives/linial.hpp"

namespace deltacolor {

RulingSetResult ruling_set(const Graph& g, LocalContext& ctx) {
  DefaultPhase scope(ctx, "ruling-set");
  RulingSetResult res;
  const NodeId n = g.num_nodes();
  res.in_set.assign(n, false);
  if (n == 0) return res;

  const LinialResult lin = linial_coloring(g, ctx);
  int bits = 1;
  while ((1 << bits) < lin.num_colors) ++bits;
  res.domination_radius = bits;

  // Engine round r peels bit (bits - 1 - r).
  SyncRunner<std::uint8_t> runner(g, std::vector<std::uint8_t>(n, 1),
                                  ctx.engine());
  const std::span<const Color> label(lin.color);
  const auto step = [bits, label](const auto& v) -> std::uint8_t {
    if (!v.self()) return 0;
    const int b = bits - 1 - v.round();
    if (((label[v.node()] >> b) & 1) == 1) return 1;
    std::uint8_t survives = 1;
    for (const NodeId u : v.neighbors())
      if (v.neighbor(u) && ((label[u] >> b) & 1) == 1)
        survives = 0;  // a bit-1 candidate neighbor dominates v
    return survives;
  };
  runner.run_rounds(bits, step);
  // Survivors are independent: adjacent survivors would agree on every bit,
  // i.e. share a Linial color — impossible for a proper coloring.
  const auto& states = runner.states();
  for (NodeId v = 0; v < n; ++v) res.in_set[v] = states[v] != 0;
  ctx.charge(bits);
  return res;
}

}  // namespace deltacolor
