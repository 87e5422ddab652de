#include "primitives/forest_coloring.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "local/sync_runner.hpp"

namespace deltacolor {

namespace {

int lowest_differing_bit(std::uint64_t a, std::uint64_t b) {
  DC_DCHECK(a != b);
  return __builtin_ctzll(a ^ b);
}

/// Lazy parent-pointer view: each node's only visible neighbor is its
/// parent. The adjacency is *asymmetric* (children are invisible).
struct ParentPointerView {
  const std::vector<NodeId>* parent;
  const std::vector<std::uint64_t>* ids;

  NodeId num_nodes() const { return static_cast<NodeId>(parent->size()); }
  int degree(NodeId v) const { return (*parent)[v] == kNoNode ? 0 : 1; }
  int max_degree() const { return 1; }
  std::uint64_t id(NodeId v) const { return (*ids)[v]; }
  static constexpr int dilation() { return 1; }

  template <typename Fn>
  void for_each_neighbor(NodeId v, Fn&& fn) const {
    if ((*parent)[v] != kNoNode) fn((*parent)[v]);
  }
};

/// Shift-down/recolor state: `pre` carries the node's own pre-shift color
/// into the recolor round (its children all hold that color then).
struct ShiftState {
  std::uint64_t color = 0;
  std::uint64_t pre = 0;
};

}  // namespace

ForestColoringResult forest_3_coloring(const std::vector<NodeId>& parent,
                                       const std::vector<std::uint64_t>& ids,
                                       LocalContext& ctx) {
  const std::size_t n = parent.size();
  DC_CHECK(ids.size() == n);
  ForestColoringResult res;
  res.color.assign(n, 0);
  if (n == 0) return res;
  DefaultPhase scope(ctx, "forest-3col");

  for (std::size_t v = 0; v < n; ++v)
    if (parent[v] != kNoNode)
      DC_CHECK_MSG(ids[v] != ids[parent[v]],
                   "forest_3_coloring: duplicate ids along an edge");
  const ParentPointerView view{&parent, &ids};

  // Cole-Vishkin reduction until the palette stabilizes at {0..5}. The
  // runner lives only in this block, so its buffers are freed before the
  // elimination runner allocates its own.
  std::vector<ShiftState> elim_initial(n);
  {
    SyncRunner<std::uint64_t, ParentPointerView> cv(view, ids, ctx.engine());
    const auto cv_step = [&](const auto& v) -> std::uint64_t {
      const std::uint64_t mine = v.self();
      const std::uint64_t other = parent[v.node()] == kNoNode
                                      ? (mine ^ 1)
                                      : v.neighbor(parent[v.node()]);
      const int i = lowest_differing_bit(mine, other);
      return 2 * static_cast<std::uint64_t>(i) + ((mine >> i) & 1);
    };
    const auto cv_done = [](NodeId, const std::uint64_t& s) { return s < 6; };
    res.rounds = cv.run_until(80, cv_step, cv_done);
    DC_CHECK_MSG(res.rounds < 80, "Cole-Vishkin failed to converge");
    const auto& colors = cv.states();
    for (std::size_t v = 0; v < n; ++v) elim_initial[v].color = colors[v];
  }

  // Eliminate colors 5, 4, 3, two engine rounds each: round 2j shifts down
  // (adopt the parent's color; roots pick a fresh one — siblings then
  // agree), round 2j+1 recolors the holders of color 5-j into {0,1,2}.
  // Post-shift holders form an independent set (v and its parent both
  // holding 5-j would mean v's parent and grandparent shared a color
  // pre-shift), so the double-buffered recolor equals the sequential one.
  SyncRunner<ShiftState, ParentPointerView> elim(
      view, std::move(elim_initial), ctx.engine());
  const auto elim_step = [&](const auto& v) -> ShiftState {
    ShiftState s = v.self();
    const NodeId p = parent[v.node()];
    if (v.round() % 2 == 0) {  // shift-down
      s.pre = s.color;
      s.color = p == kNoNode ? (s.color == 0 ? 1 : 0) : v.neighbor(p).color;
      return s;
    }
    const std::uint64_t eliminate = 5 - static_cast<std::uint64_t>(v.round() / 2);
    if (s.color != eliminate) return s;
    // Neighborhood colors: the parent's, and the (shared) children color —
    // every child holds v's pre-shift color after the shift.
    const std::uint64_t blocked1 =
        p == kNoNode ? ~std::uint64_t{0} : v.neighbor(p).color;
    const std::uint64_t blocked2 = s.pre;
    for (std::uint64_t c = 0; c < 3; ++c) {
      if (c != blocked1 && c != blocked2) {
        s.color = c;
        break;
      }
    }
    return s;
  };
  elim.run_rounds(6, elim_step);
  res.rounds += 6;

  const auto& states = elim.states();
  for (std::size_t v = 0; v < n; ++v) {
    DC_CHECK(states[v].color < 3);
    res.color[v] = static_cast<Color>(states[v].color);
  }
  ctx.charge(res.rounds);
  return res;
}

bool is_proper_forest_coloring(const std::vector<NodeId>& parent,
                               const std::vector<Color>& color,
                               int num_colors) {
  for (std::size_t v = 0; v < parent.size(); ++v) {
    if (color[v] < 0 || color[v] >= num_colors) return false;
    if (parent[v] != kNoNode && color[v] == color[parent[v]]) return false;
  }
  return true;
}

}  // namespace deltacolor
