#include "primitives/list_coloring.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>

#include "common/check.hpp"
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

// The calling worker's exclusion bitset for palettes wider than 64 colors;
// reset(width) per use reuses the backing words, so the sweep is
// allocation-free once warm.
PaletteSet& taken_set() {
  thread_local PaletteSet taken;
  return taken;
}

// Marks the colors that `insert_all(insert)` passes to `insert` as taken
// and returns `use(taken)`, where taken(c) tells whether c was marked: one
// 64-bit word when every color lies below 64, the calling worker's
// PaletteSet above that. A negative c is never taken, as in PaletteSet.
// Both give the same answers; at width 16 the word took phase 4B's scan
// and sweep to about 0.6x of the PaletteSet's time (EXPERIMENTS.md, "deg+1
// over the active list").
template <typename InsertAll, typename Use>
auto with_taken(int width, InsertAll&& insert_all, Use&& use) {
  if (width <= 64) {
    std::uint64_t word = 0;
    insert_all([&word](Color c) { word |= std::uint64_t{1} << c; });
    return use([word](Color c) { return c >= 0 && ((word >> c) & 1) != 0; });
  }
  PaletteSet& taken = taken_set();
  taken.reset(width);
  insert_all([&taken](Color c) { taken.insert(c); });
  return use([&taken](Color c) { return taken.contains(c); });
}

// The one pass over the host: checks the deg+1 instance — every active
// node is uncolored, and its list minus the colors of already-colored
// neighbors, counted with repetition, exceeds its active degree — and
// collects the ascending active list with the maximum degree of the
// subgraph it induces. Allocation-free once warm, apart from the list.
ActiveNodes scan_active(const Graph& g, const NodeMask& active,
                        const ColorLists& lists,
                        const std::vector<Color>& color, int width,
                        std::vector<NodeId>& nodes) {
  DC_CHECK(active.size() == g.num_nodes());
  DC_CHECK(lists.size() == g.num_nodes());
  DC_CHECK(color.size() == g.num_nodes());
  int max_degree = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!active[v]) continue;
    DC_CHECK_MSG(color[v] == kNoColor,
                 "active node " << v << " is already colored");
    int active_deg = 0;
    const int effective = with_taken(
        width,
        [&](auto&& insert) {
          for (const NodeId u : g.neighbors(v)) {
            if (active[u]) ++active_deg;
            if (color[u] != kNoColor) insert(color[u]);
          }
        },
        [&](auto&& taken) {
          int free = 0;
          for (const Color c : lists[v])
            if (!taken(c)) ++free;
          return free;
        });
    DC_CHECK_MSG(effective >= active_deg + 1,
                 "deg+1 precondition violated at node "
                     << v << ": effective list " << effective
                     << " <= active degree " << active_deg);
    nodes.push_back(v);
    max_degree = std::max(max_degree, active_deg);
  }
  return ActiveNodes{nodes, max_degree};
}

}  // namespace

int deg_plus_one_list_color(const Graph& g, const NodeMask& active,
                            const ColorLists& lists,
                            std::vector<Color>& color, LocalContext& ctx) {
  DefaultPhase scope(ctx, "deg+1-list");
  const int width = palette_width(lists, color);
  std::vector<NodeId> nodes;
  const ActiveNodes act = scan_active(g, active, lists, color, width, nodes);
  if (nodes.empty()) return 0;

  // Symmetry breaking: Linial + Kuhn-Wattenhofer reduction on the subgraph
  // the active list induces, stepped on the host graph with host-indexed
  // states, gives a (deg_active+1)-class schedule in
  // O(Delta log Delta + log* n) rounds; then one greedy round per class.
  // Nodes of the same class are non-adjacent, so their simultaneous
  // choices cannot conflict.
  const LinialResult sched = schedule_coloring(g, ctx, &act);

  // Class sweep on the host graph (exclusions come from all neighbors,
  // active or not): engine round t colors schedule class t, so the sweep
  // runs as keyed rounds over the active list that step only class t in
  // round t. Scanning the node's list in *its own order* against the
  // exclusions picks the same color the old sort+binary_search code did,
  // for sorted and unsorted lists alike.
  const std::vector<Color>& cls = sched.color;
  SyncRunner<Color> runner(g, std::move(color), ctx.engine());
  std::atomic<bool> failed{false};
  const auto key = [&cls](NodeId v, Color) { return cls[v]; };
  const auto step = [&cls, &lists, width, &failed](const auto& v) -> Color {
    if (cls[v.node()] != v.round()) return v.self();
    Color pick = v.self();
    const bool found = with_taken(
        width,
        [&](auto&& insert) {
          v.for_each_neighbor([&](NodeId u) {
            const Color cu = v.neighbor(u);
            if (cu != kNoColor) insert(cu);
          });
        },
        [&](auto&& taken) {
          for (const Color c : lists[v.node()]) {
            if (!taken(c)) {
              pick = c;
              return true;
            }
          }
          return false;
        });
    if (!found) failed.store(true, std::memory_order_relaxed);
    return pick;
  };
  runner.run_keyed(sched.num_colors, key, step, act.nodes);
  color = runner.take_states();
  DC_CHECK_MSG(!failed.load(std::memory_order_relaxed),
               "class-greedy ran out of colors");

  // The schedule charged its own rounds; the sweep is one round per class.
  ctx.charge(sched.num_colors);
  return sched.rounds + sched.num_colors;
}

ColorLists uniform_lists(const Graph& g, int num_colors) {
  return ColorLists::uniform(g.num_nodes(), num_colors);
}

}  // namespace deltacolor
