#include "primitives/linial.hpp"

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"  // next_prime

namespace deltacolor {

namespace detail {

std::uint64_t linial_pow_sat(std::uint64_t q, int e) {
  std::uint64_t r = 1;
  for (int i = 0; i < e; ++i) {
    if (r > ~std::uint64_t{0} / q) return ~std::uint64_t{0};
    r *= q;
  }
  return r;
}

int linial_degree_for(std::uint64_t q, std::uint64_t max_val) {
  // A saturated power stands for a true power above 2^64 - 1 (which is no
  // perfect power), so it exceeds every max_val, 2^64 - 1 included.
  constexpr std::uint64_t kSaturated = ~std::uint64_t{0};
  int d = 0;
  for (;;) {
    const std::uint64_t p = linial_pow_sat(q, d + 1);
    if (p == kSaturated || p > max_val) return d;
    ++d;
  }
}

std::pair<std::uint64_t, int> linial_choose_field(int delta,
                                                  std::uint64_t max_val) {
  for (int q = next_prime(std::max(2, delta + 2));; q = next_prime(q + 1)) {
    const int d = linial_degree_for(static_cast<std::uint64_t>(q), max_val);
    if (static_cast<std::uint64_t>(q) >
        static_cast<std::uint64_t>(delta) * static_cast<std::uint64_t>(d))
      return {static_cast<std::uint64_t>(q), d};
  }
}

std::uint32_t* linial_scratch(std::size_t words) {
  thread_local std::vector<std::uint32_t> scratch;
  if (scratch.size() < words) scratch.resize(words);
  return scratch.data();
}

}  // namespace detail

LinialResult linial_edge_coloring(const Graph& g, LocalContext& ctx) {
  DefaultPhase scope(ctx, "linial-edge");
  const EdgeId m = g.num_edges();
  LinialResult empty;
  if (m == 0) {
    empty.num_colors = 1;
    return empty;
  }

  // Vertex coloring first (palette chi = O(Delta^2)); its rounds are real
  // rounds, charged to the same phase as the line-graph rounds.
  const LinialResult vertex = linial_coloring(g, ctx);

  // Compose a proper initial edge coloring: for edge (u, v) combine
  // (c_u, port_u(v)) and (c_v, port_v(u)) as an unordered pair, where
  // port_u(v) is v's index within u's adjacency list. Properness: two edges
  // sharing endpoint u differ either in the other endpoint's vertex color
  // or, if those collide, in u's ports; the unordered encoding cannot
  // confuse sides because adjacent endpoints never share a vertex color.
  const std::uint64_t port_space = static_cast<std::uint64_t>(
      std::max(1, g.max_degree()));
  const std::uint64_t half_space =
      static_cast<std::uint64_t>(vertex.num_colors) * port_space;
  std::vector<std::uint64_t> initial(m);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto inc = g.incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i];
      if (v < u) continue;  // handle each edge once, from its low endpoint
      // Find u's port at v.
      const auto vn = g.neighbors(v);
      const std::size_t j = static_cast<std::size_t>(
          std::lower_bound(vn.begin(), vn.end(), u) - vn.begin());
      const std::uint64_t a =
          static_cast<std::uint64_t>(vertex.color[u]) * port_space + i;
      const std::uint64_t b =
          static_cast<std::uint64_t>(vertex.color[v]) * port_space + j;
      const std::uint64_t lo = std::min(a, b), hi = std::max(a, b);
      initial[inc[i]] = lo * half_space + hi;
    }
  }

  // Reduce on the lazy line-graph view; each virtual round dilates to 2
  // real rounds (endpoints sync edge state over the edge), realized by the
  // view's dilation() inside linial_reduce's charge.
  const LineGraphView line(g);
  LinialResult res = linial_reduce(line, std::move(initial), ctx);
  res.rounds = vertex.rounds + 2 * res.rounds;
  return res;
}

}  // namespace deltacolor
