#include "primitives/list_coloring.hpp"

#include <algorithm>
#include <atomic>
#include <span>

#include "common/check.hpp"
#include "graph/graph_view.hpp"
#include "local/sync_runner.hpp"
#include "primitives/color_reduction.hpp"
#include "primitives/linial.hpp"

namespace deltacolor {

namespace {

// Bitset width covering every color a sweep can observe: list entries plus
// the pre-existing partial coloring (all colors assigned *during* a sweep
// come from the lists, so the bound is sweep-invariant).
int palette_width(const ColorLists& lists, const std::vector<Color>& color) {
  Color mx = lists.max_color();
  for (const Color c : color) mx = std::max(mx, c);
  return static_cast<int>(mx) + 1;
}

// The calling worker's exclusion bitset; reset(width) per step reuses the
// backing words, so the sweep is allocation-free once warm.
PaletteSet& taken_set() {
  thread_local PaletteSet taken;
  return taken;
}

// Checks the deg+1 instance: every active node is uncolored and its list,
// minus the colors of already-colored neighbors, counted with repetition,
// exceeds its active degree. The exclusions go into the calling thread's
// sweep PaletteSet, so the check allocates nothing once warm.
void check_precondition(const Graph& g, const NodeMask& active,
                        const ColorLists& lists,
                        const std::vector<Color>& color, int width) {
  DC_CHECK(active.size() == g.num_nodes());
  DC_CHECK(lists.size() == g.num_nodes());
  DC_CHECK(color.size() == g.num_nodes());
  PaletteSet& taken = taken_set();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!active[v]) continue;
    DC_CHECK_MSG(color[v] == kNoColor,
                 "active node " << v << " is already colored");
    taken.reset(width);
    int active_deg = 0;
    for (const NodeId u : g.neighbors(v)) {
      if (active[u]) ++active_deg;
      if (color[u] != kNoColor) taken.insert(color[u]);
    }
    int effective = 0;
    for (const Color c : lists[v])
      if (!taken.contains(c)) ++effective;
    DC_CHECK_MSG(effective >= active_deg + 1,
                 "deg+1 precondition violated at node "
                     << v << ": effective list " << effective
                     << " <= active degree " << active_deg);
  }
}

}  // namespace

int deg_plus_one_list_color(const Graph& g, const NodeMask& active,
                            const ColorLists& lists,
                            std::vector<Color>& color, LocalContext& ctx) {
  DefaultPhase scope(ctx, "deg+1-list");
  const int width = palette_width(lists, color);
  check_precondition(g, active, lists, color, width);

  std::vector<NodeId> active_nodes;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (active[v]) active_nodes.push_back(v);
  if (active_nodes.empty()) return 0;

  // Symmetry breaking: Linial + Kuhn-Wattenhofer reduction on the lazy
  // active-induced view gives a (deg_active+1)-class schedule in
  // O(Delta log Delta + log* n) rounds; then one greedy round per class.
  // Nodes of the same class are non-adjacent, so their simultaneous
  // choices cannot conflict.
  const InducedSubgraphView sub(g, active_nodes);
  // The view holds its own copy of the node list; release ours before the
  // schedule, the sweep's memory peak.
  active_nodes.clear();
  active_nodes.shrink_to_fit();
  const LinialResult lin = schedule_coloring(sub, ctx);

  // Class sweep on the *host* graph (exclusions come from all neighbors,
  // active or not): engine round t colors schedule class t, so the sweep
  // runs as keyed rounds that step only class t in round t (inactive nodes
  // never act). The exclusion set is a word-parallel bitset; scanning the
  // node's list in *its own order* against it picks the same color the old
  // sort+binary_search code did, for sorted and unsorted lists alike.
  std::vector<Color> class_of(g.num_nodes(), -1);
  for (NodeId i = 0; i < sub.num_nodes(); ++i)
    class_of[sub.orig_of(i)] = lin.color[i];
  SyncRunner<Color> runner(g, color, ctx.round_indexed_engine());
  std::atomic<bool> failed{false};
  const auto key = [&class_of](NodeId v, Color) { return class_of[v]; };
  const auto step = [&class_of, &lists, width,
                     &failed](const auto& v) -> Color {
    if (class_of[v.node()] != v.round()) return v.self();
    PaletteSet& taken = taken_set();
    taken.reset(width);
    v.for_each_neighbor([&](NodeId u) {
      const Color cu = v.neighbor(u);
      if (cu != kNoColor) taken.insert(cu);
    });
    for (const Color c : lists[v.node()])
      if (!taken.contains(c)) return c;
    failed.store(true, std::memory_order_relaxed);
    return v.self();
  };
  runner.run_keyed(lin.num_colors, key, step);
  DC_CHECK_MSG(!failed.load(std::memory_order_relaxed),
               "class-greedy ran out of colors");
  color = runner.take_states();

  // The schedule charged its own rounds; the sweep is one round per class.
  ctx.charge(lin.num_colors);
  return lin.rounds + lin.num_colors;
}

ColorLists uniform_lists(const Graph& g, int num_colors) {
  return ColorLists::uniform(g.num_nodes(), num_colors);
}

}  // namespace deltacolor
