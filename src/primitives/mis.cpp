#include "primitives/mis.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/check.hpp"
#include "common/rng.hpp"
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
      g, std::vector<std::uint8_t>(g.num_nodes(), 0),
      ctx.round_indexed_engine());
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

namespace {

enum LubyStatus : std::uint8_t {
  kLubyUndecided = 0,
  kLubyCandidate = 1,
  kLubyIn = 2,
  kLubyOut = 3,
};

struct LubyState {
  std::uint8_t status = kLubyUndecided;
  std::uint64_t draw = 0;
  bool operator==(const LubyState&) const = default;
};

}  // namespace

std::vector<bool> mis_luby(const Graph& g, LocalContext& ctx) {
  DefaultPhase scope(ctx, "mis-luby");
  ScopedContextTimer timer(ctx);
  const NodeId n = g.num_nodes();
  const std::uint64_t seed = ctx.seed();
  const int max_iterations = 64 * (32 - __builtin_clz(n + 2));

  // One Luby iteration = 3 engine rounds: draw (3t), join (3t+1),
  // eliminate (3t+2). The transition is keyed on round % 3 and the draw on
  // round / 3, so frontier mode is off (a quiet candidate must still see
  // its elimination round).
  SyncRunner<LubyState> runner(g, std::vector<LubyState>(n),
                               ctx.round_indexed_engine());
  const auto step = [seed, &g](const auto& v) -> LubyState {
    LubyState s = v.self();
    if (s.status == kLubyIn || s.status == kLubyOut) return s;
    switch (v.round() % 3) {
      case 0:  // draw: every undecided node becomes a candidate
        s.draw = hash_mix(seed, v.id(),
                          static_cast<std::uint64_t>(v.round() / 3)) |
                 1;  // nonzero
        s.status = kLubyCandidate;
        return s;
      case 1: {  // join if strict local maximum among candidates
        bool is_max = true;
        v.for_each_neighbor([&](NodeId u) {
          const LubyState& nb = v.neighbor(u);
          if (nb.status != kLubyCandidate) return;
          if (nb.draw > s.draw ||
              (nb.draw == s.draw && g.id(u) > v.id()))
            is_max = false;
        });
        if (is_max) {
          s.status = kLubyIn;
          s.draw = 0;
        }
        return s;
      }
      default: {  // eliminate: neighbors of fresh members drop out
        bool out = false;
        v.for_each_neighbor([&](NodeId u) {
          if (v.neighbor(u).status == kLubyIn) out = true;
        });
        s.status = out ? kLubyOut : kLubyUndecided;
        s.draw = 0;
        return s;
      }
    }
  };
  const auto done_node = [](NodeId, const LubyState& s) {
    return s.status == kLubyIn || s.status == kLubyOut;
  };
  const int engine_rounds =
      runner.run_until(3 * max_iterations, step, done_node);
  DC_CHECK_MSG(std::all_of(runner.states().begin(), runner.states().end(),
                           [](const LubyState& s) {
                             return s.status == kLubyIn ||
                                    s.status == kLubyOut;
                           }),
               "Luby MIS did not converge");
  const int iterations = (engine_rounds + 2) / 3;

  const auto& states = runner.states();
  std::vector<bool> in_set(n, false);
  for (NodeId v = 0; v < n; ++v) in_set[v] = states[v].status == kLubyIn;
  ctx.charge(iterations);
  return in_set;
}

}  // namespace deltacolor
