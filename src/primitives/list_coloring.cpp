#include "primitives/list_coloring.hpp"

#include <algorithm>
#include <atomic>
#include <span>

#include "common/check.hpp"
#include "common/rng.hpp"
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
  RoundLedger sub_ledger;  // schedule rounds are re-charged below
  LocalContext sub_ctx(sub_ledger, ctx.engine(), ctx.seed());
  const LinialResult lin = schedule_coloring(sub, sub_ctx);

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

  const int rounds = lin.rounds + lin.num_colors;
  // The schedule's own rounds went into sub_ledger; charge them to the
  // caller's phase together with the class sweep.
  ctx.charge(rounds);
  return rounds;
}

namespace {

struct TrialState {
  Color color = kNoColor;
  Color trial = kNoColor;
  bool operator==(const TrialState&) const = default;
};

}  // namespace

int deg_plus_one_list_color_randomized(const Graph& g, const NodeMask& active,
                                       const ColorLists& lists,
                                       std::vector<Color>& color,
                                       LocalContext& ctx) {
  DefaultPhase scope(ctx, "deg+1-list-rand");
  const int width = palette_width(lists, color);
  check_precondition(g, active, lists, color, width);
  const std::uint64_t seed = ctx.seed();
  const int max_iterations = 64 * (32 - __builtin_clz(g.num_nodes() + 2));

  // One iteration = 2 engine rounds: trial (2t) then commit (2t+1). A
  // pending node's state flips every round (trial set, then cleared), and
  // decided/inactive nodes are fixpoints, so the user's frontier setting is
  // sound here and the sweep shrinks with the pending set.
  std::vector<TrialState> initial(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) initial[v].color = color[v];
  SyncRunner<TrialState> runner(g, std::move(initial), ctx.engine());
  std::atomic<bool> failed{false};
  const std::span<const std::uint8_t> active_s(active);
  const auto step = [active_s, &lists, width, seed,
                     &failed](const auto& v) -> TrialState {
    TrialState s = v.self();
    if (!active_s[v.node()] || s.color != kNoColor) return s;
    if (v.round() % 2 == 0) {
      // Trial: sample uniformly from the effective list. Two passes over
      // the node's flat list against the taken bitset — count the free
      // entries (in list order, duplicates preserved), then select the
      // drawn one — reproduce exactly the old materialized eff[draw % k]
      // without touching the heap.
      PaletteSet& taken = taken_set();
      taken.reset(width);
      v.for_each_neighbor([&](NodeId u) {
        const Color cu = v.neighbor(u).color;
        if (cu != kNoColor) taken.insert(cu);
      });
      const std::span<const Color> list = lists[v.node()];
      std::size_t eff = 0;
      for (const Color c : list)
        if (!taken.contains(c)) ++eff;
      if (eff == 0) {
        failed.store(true, std::memory_order_relaxed);
        return s;
      }
      std::size_t k = hash_mix(seed, v.node(),
                               static_cast<std::uint64_t>(v.round() / 2)) %
                      eff;
      for (const Color c : list) {
        if (taken.contains(c)) continue;
        if (k == 0) {
          s.trial = c;
          break;
        }
        --k;
      }
      return s;
    }
    // Commit: keep the trial if no neighbor tried the same color.
    if (s.trial == kNoColor) return s;
    bool ok = true;
    v.for_each_neighbor([&](NodeId u) {
      if (v.neighbor(u).trial == s.trial) ok = false;
    });
    if (ok) s.color = s.trial;
    s.trial = kNoColor;
    return s;
  };
  const auto done_node = [active_s](NodeId v, const TrialState& s) {
    return !active_s[v] || s.color != kNoColor;
  };
  const int engine_rounds =
      runner.run_until(2 * max_iterations, step, done_node);
  DC_CHECK_MSG(!failed.load(std::memory_order_relaxed),
               "randomized deg+1: empty effective list");
  bool converged = true;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    converged &= done_node(v, runner.states()[v]);
  DC_CHECK_MSG(converged, "randomized deg+1 did not converge");
  const int iterations = (engine_rounds + 1) / 2;

  const auto& states = runner.states();
  for (NodeId v = 0; v < g.num_nodes(); ++v) color[v] = states[v].color;
  ctx.charge(iterations);
  return iterations;
}

ColorLists uniform_lists(const Graph& g, int num_colors) {
  return ColorLists::uniform(g.num_nodes(), num_colors);
}

}  // namespace deltacolor
