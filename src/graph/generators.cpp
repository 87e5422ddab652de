#include "graph/generators.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <unordered_set>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace deltacolor {

// Generator fast paths: every builder below knows the structure of the
// edge list it emits (row-major enumeration is lexicographically sorted;
// distinct slots never repeat an edge), and declares it via EdgeListHints
// so the Graph builder can skip normalization, the counting sort, or the
// dedup pass. The hints never change the resulting CSR — only the work
// needed to reach it.

Graph path_graph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph(n, std::move(edges), kSortedUniqueEdges);
}

Graph cycle_graph(NodeId n) {
  DC_CHECK(n >= 3);
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.emplace_back(0, 1);
  edges.emplace_back(0, n - 1);  // the wrap edge, in sorted position
  for (NodeId i = 1; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph(n, std::move(edges), kSortedUniqueEdges);
}

Graph complete_graph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  return Graph(n, std::move(edges), kSortedUniqueEdges);
}

Graph complete_bipartite(NodeId a, NodeId b) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < a; ++i)
    for (NodeId j = 0; j < b; ++j) edges.emplace_back(i, a + j);
  return Graph(a + b, std::move(edges), kSortedUniqueEdges);
}

Graph star_graph(NodeId leaves) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < leaves; ++i) edges.emplace_back(0, i + 1);
  return Graph(leaves + 1, std::move(edges), kSortedUniqueEdges);
}

Graph torus_grid(NodeId rows, NodeId cols) {
  DC_CHECK(rows >= 2 && cols >= 2);
  auto at = [cols](NodeId r, NodeId c) { return r * cols + c; };
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      const auto right = at(r, (c + 1) % cols);
      const auto down = at((r + 1) % rows, c);
      edges.emplace_back(std::min(at(r, c), right),
                         std::max(at(r, c), right));
      edges.emplace_back(std::min(at(r, c), down),
                         std::max(at(r, c), down));
    }
  }
  // A side of 2 wraps onto an edge the grid already has, so those pairs
  // come twice and the builder must fold them.
  EdgeListHints hints = kNormalizedUniqueEdges;
  hints.unique = rows >= 3 && cols >= 3;
  return Graph(rows * cols, std::move(edges), hints);
}

Graph random_tree(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v < n; ++v)
    edges.emplace_back(static_cast<NodeId>(rng.below(v)), v);
  // Each child v appears in exactly one (parent < v) pair.
  return Graph(n, std::move(edges), kNormalizedUniqueEdges);
}

Graph random_graph(NodeId n, double p, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j)
      if (rng.chance(p)) edges.emplace_back(i, j);
  return Graph(n, std::move(edges), kSortedUniqueEdges);
}

Graph random_regular(NodeId n, int d, std::uint64_t seed) {
  DC_CHECK(d >= 1 && static_cast<std::uint64_t>(n) * d % 2 == 0);
  DC_CHECK(static_cast<int>(n) > d);
  Rng rng(seed);
  // Pairing (configuration) model: n*d points, random perfect pairing,
  // followed by swap repair of self loops and parallel edges.
  std::vector<NodeId> points(static_cast<std::size_t>(n) * d);
  for (std::size_t i = 0; i < points.size(); ++i)
    points[i] = static_cast<NodeId>(i / d);
  for (std::size_t i = points.size(); i > 1; --i)
    std::swap(points[i - 1], points[rng.below(i)]);

  const std::size_t num_pairs = points.size() / 2;
  auto pair_of = [&](std::size_t k) {
    return std::pair<NodeId, NodeId>(points[2 * k], points[2 * k + 1]);
  };
  auto count_multi = [&]() {
    std::vector<std::pair<NodeId, NodeId>> sorted;
    sorted.reserve(num_pairs);
    for (std::size_t k = 0; k < num_pairs; ++k) {
      auto [a, b] = pair_of(k);
      sorted.emplace_back(std::min(a, b), std::max(a, b));
    }
    std::sort(sorted.begin(), sorted.end());
    std::size_t bad = 0;
    for (std::size_t k = 0; k < sorted.size(); ++k)
      if (sorted[k].first == sorted[k].second ||
          (k > 0 && sorted[k] == sorted[k - 1]))
        ++bad;
    return bad;
  };

  // The normalized pairs met so far in a pass, packed (min << 32) | max.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(num_pairs);
  for (int attempt = 0; attempt < 500 && count_multi() > 0; ++attempt) {
    // Swap one endpoint of every currently-bad pair with a random point.
    seen.clear();
    for (std::size_t k = 0; k < num_pairs; ++k) {
      auto [a, b] = pair_of(k);
      const bool self = a == b;
      const std::uint64_t key =
          (std::uint64_t{std::min(a, b)} << 32) | std::max(a, b);
      // insert() adds only unseen keys, so it is the membership test.
      const bool dup = !self && !seen.insert(key).second;
      if (self || dup) {
        const std::size_t other = rng.below(points.size());
        std::swap(points[2 * k + 1], points[other]);
      }
    }
  }
  DC_CHECK_MSG(count_multi() == 0,
               "random_regular failed to repair pairing; n=" << n
                                                             << " d=" << d);
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(num_pairs);
  for (std::size_t k = 0; k < num_pairs; ++k) edges.push_back(pair_of(k));
  // count_multi() == 0 certifies the pairing is simple: no pair repeats
  // after normalization, so the builder can skip its dedup pass.
  return Graph(n, std::move(edges), EdgeListHints{false, true, false});
}

// --- number-theory helpers ---------------------------------------------------

int next_prime(int n) {
  auto is_prime = [](int x) {
    if (x < 2) return false;
    for (int d = 2; d * d <= x; ++d)
      if (x % d == 0) return false;
    return true;
  };
  while (!is_prime(n)) ++n;
  return n;
}

std::vector<int> sidon_set(int count) {
  DC_CHECK(count >= 1);
  // Erdos-Turan: for prime p the integers a_i = 2*p*i + (i^2 mod p),
  // i = 0..p-1, have pairwise distinct differences.
  const int p = next_prime(count);
  std::vector<int> a(count);
  for (int i = 0; i < count; ++i) a[i] = 2 * p * i + (i * i) % p;
  return a;
}

int girth_at_most(const Graph& g, int cap) {
  int best = cap + 1;
  std::vector<int> dist(g.num_nodes());
  std::vector<NodeId> parent(g.num_nodes());
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::queue<NodeId> q;
    dist[s] = 0;
    parent[s] = kNoNode;
    q.push(s);
    while (!q.empty()) {
      const NodeId x = q.front();
      q.pop();
      if (2 * dist[x] >= best) break;
      for (const NodeId y : g.neighbors(x)) {
        if (y == parent[x]) continue;
        if (dist[y] == -1) {
          dist[y] = dist[x] + 1;
          parent[y] = x;
          q.push(y);
        } else {
          best = std::min(best, dist[x] + dist[y] + 1);
        }
      }
    }
    if (best <= 3) break;  // girth cannot be smaller
  }
  return best;
}

// --- clique blow-up ----------------------------------------------------------

namespace {

struct Supergraph {
  int side = 0;                       // cliques per side; total 2*side
  std::vector<int> shifts;            // D distinct shifts mod side
};

// Bipartite circulant supergraph: left clique a is linked to right clique
// (a + shift_k) mod side for every shift. Simple and bipartite by
// construction; Sidon shifts additionally exclude 4-cycles.
Supergraph make_supergraph(int requested_cliques, int super_degree,
                           bool need_sidon) {
  Supergraph sg;
  std::vector<int> shifts;
  int min_side = 0;
  if (need_sidon) {
    shifts = sidon_set(super_degree);
    // Differences stay distinct mod m whenever m > 2 * max(shifts).
    min_side = 2 * shifts.back() + 1;
  } else {
    shifts.resize(super_degree);
    std::iota(shifts.begin(), shifts.end(), 0);
    min_side = super_degree;
  }
  sg.side = std::max((requested_cliques + 1) / 2, min_side);
  sg.shifts = std::move(shifts);
  return sg;
}

// One representative vertex per simple cycle of length <= cap found in g
// (deduplicated: each cycle is reported from its minimum vertex only).
// Intended for the low-degree cross subgraph: cost O(n * maxdeg^(cap-1)).
std::vector<NodeId> short_cycle_pivots(const Graph& g, int cap) {
  std::vector<NodeId> pivots;
  std::vector<NodeId> path;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    bool found = false;
    path.assign(1, v);
    // DFS over simple paths starting at v whose interior vertices are > v.
    auto dfs = [&](auto&& self, NodeId x) -> void {
      if (found) return;
      for (const NodeId y : g.neighbors(x)) {
        if (found) return;
        if (y == v) {
          if (path.size() >= 3) {  // cycle length = path.size()
            found = true;
            return;
          }
          continue;
        }
        if (y < v) continue;
        if (static_cast<int>(path.size()) >= cap) continue;
        if (std::find(path.begin(), path.end(), y) != path.end()) continue;
        path.push_back(y);
        self(self, y);
        path.pop_back();
      }
    };
    dfs(dfs, v);
    if (found) pivots.push_back(v);
  }
  return pivots;
}

}  // namespace

int min_blowup_cliques(int delta, int clique_size) {
  DC_CHECK(clique_size >= 3 && clique_size <= delta);
  const int e = delta - clique_size + 1;
  // A request for no cliques comes back at the supergraph's minimum side.
  return 2 * make_supergraph(0, clique_size * e, /*need_sidon=*/e > 1).side;
}

CliqueInstance clique_blowup_instance(const CliqueInstanceOptions& options) {
  const int s = options.clique_size;
  const int delta = options.delta;
  DC_CHECK_MSG(s >= 3 && s <= delta,
               "need 3 <= clique_size <= delta, got s=" << s
                                                        << " delta=" << delta);
  const int e = delta - s + 1;  // cross edges per vertex
  const int super_degree = s * e;
  Rng rng(options.seed);

  const Supergraph sg =
      make_supergraph(options.num_cliques, super_degree, /*need_sidon=*/e > 1);
  const int t = 2 * sg.side;  // total cliques
  const NodeId n = static_cast<NodeId>(t) * static_cast<NodeId>(s);

  CliqueInstance inst;
  inst.delta = delta;
  inst.cliques.resize(t);
  inst.clique_of.assign(n, -1);
  for (int c = 0; c < t; ++c) {
    for (int j = 0; j < s; ++j) {
      const NodeId v = static_cast<NodeId>(c) * s + j;
      inst.cliques[c].push_back(v);
      inst.clique_of[v] = c;
    }
  }

  // Edge ownership: clique c's k-th incident supergraph edge attaches to
  // local vertex owner[c][k]; every local vertex owns exactly e edges.
  //
  // The cross-edge subgraph is bipartite (edges always join a left clique to
  // a right clique), and the Sidon shifts exclude 4-cycles of R, hence
  // 4-cycles of the cross subgraph. The only possible short cycles are
  // 6-cycles arising from 6-cycles of R whose ownership coincides at all six
  // cliques; each such cycle is destroyed by one ownership swap at any of
  // its cliques (possible only when e >= 2). We repair until none remain.
  std::vector<std::vector<int>> owner(t);
  for (int c = 0; c < t; ++c) {
    owner[c].resize(super_degree);
    for (int k = 0; k < super_degree; ++k) owner[c][k] = k / e;
    for (std::size_t i = owner[c].size(); i > 1; --i)
      std::swap(owner[c][i - 1], owner[c][rng.below(i)]);
  }
  // For the repair step we need, per cross edge, the (clique, k) slots on
  // both sides. R-edge (a, k) joins left clique a and right clique
  // side + (a + shift_k) % side; its index in both cliques' owner arrays is
  // k (left) and k (right) — the right clique's incident edges are also
  // naturally indexed by shift index, since each shift contributes exactly
  // one incident edge to each right clique.
  auto vertex_at = [&](int clique, int local) {
    return static_cast<NodeId>(clique) * s + static_cast<NodeId>(local);
  };
  auto build_cross = [&]() {
    std::vector<std::pair<NodeId, NodeId>> ce;
    ce.reserve(static_cast<std::size_t>(sg.side) * super_degree);
    for (int a = 0; a < sg.side; ++a) {
      for (int k = 0; k < super_degree; ++k) {
        const int b = sg.side + (a + sg.shifts[k]) % sg.side;
        ce.emplace_back(vertex_at(a, owner[a][k]), vertex_at(b, owner[b][k]));
      }
    }
    return ce;
  };
  std::vector<std::pair<NodeId, NodeId>> cross_edges = build_cross();
  if (e > 1) {
    const int max_scans = 80;
    for (int scan = 0;; ++scan) {
      DC_CHECK_MSG(scan < max_scans,
                   "clique_blowup_instance: 6-cycle repair did not converge");
      // Cross edges always join a left clique (index < side) to a right
      // clique, so u < v holds and no pair repeats (one edge per R-slot).
      const Graph cross_only(n, cross_edges, kNormalizedUniqueEdges);
      const auto pivots = short_cycle_pivots(cross_only, 6);
      if (pivots.empty()) break;
      for (const NodeId pivot : pivots) {
        // Move one randomly chosen cross edge of the pivot vertex to a
        // different local vertex of the same clique.
        const int c = inst.clique_of[pivot];
        const int local = static_cast<int>(pivot % static_cast<NodeId>(s));
        std::vector<int> owned;  // slots owned by the pivot vertex
        for (int k = 0; k < super_degree; ++k)
          if (owner[c][k] == local) owned.push_back(k);
        DC_CHECK(!owned.empty());
        const int k = owned[rng.below(owned.size())];
        for (;;) {  // swap with a slot owned by a different vertex
          const int k2 = static_cast<int>(rng.below(super_degree));
          if (owner[c][k2] != local) {
            std::swap(owner[c][k], owner[c][k2]);
            break;
          }
        }
      }
      cross_edges = build_cross();
    }
  }

  std::vector<std::pair<NodeId, NodeId>> edges = cross_edges;
  // Intra-clique edges, with one edge removed in easified cliques.
  const int easy_count = static_cast<int>(options.easy_fraction * t);
  inst.easified.assign(t, false);
  {
    std::vector<int> order(t);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    for (int i = 0; i < easy_count; ++i) inst.easified[order[i]] = true;
  }
  for (int c = 0; c < t; ++c) {
    // The removed edge (if any) joins two random distinct local vertices.
    int skip_a = -1, skip_b = -1;
    if (inst.easified[c]) {
      skip_a = static_cast<int>(rng.below(s));
      skip_b = static_cast<int>(rng.below(s - 1));
      if (skip_b >= skip_a) ++skip_b;
      if (skip_a > skip_b) std::swap(skip_a, skip_b);
    }
    for (int i = 0; i < s; ++i) {
      for (int j = i + 1; j < s; ++j) {
        if (i == skip_a && j == skip_b) continue;
        edges.emplace_back(static_cast<NodeId>(c) * s + i,
                           static_cast<NodeId>(c) * s + j);
      }
    }
  }

  // Cross edges are normalized and unique (see the repair loop above);
  // intra edges are emitted with i < j within one clique and never collide
  // with cross edges (which join distinct cliques). The blow-up knows its
  // adjacency structure, so no global sort or dedup is needed.
  inst.graph = Graph(n, std::move(edges), kNormalizedUniqueEdges);
  DC_CHECK(inst.graph.max_degree() == delta);
  if (options.shuffle_ids)
    inst.graph.set_ids(shuffled_ids(n, options.seed ^ 0x5eedULL));
  return inst;
}

CliqueInstance clique_ring(int num_cliques, int clique_size,
                           std::uint64_t seed) {
  DC_CHECK(num_cliques >= 3 && clique_size >= 3);
  const int t = num_cliques;
  const int s = clique_size;
  const NodeId n = static_cast<NodeId>(t) * s;
  CliqueInstance inst;
  inst.delta = s;  // cross-edge endpoints have degree (s-1) + 1 = s
  inst.cliques.resize(t);
  inst.clique_of.assign(n, -1);
  inst.easified.assign(t, true);  // every clique has degree-(<Delta) vertices
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int c = 0; c < t; ++c) {
    for (int i = 0; i < s; ++i) {
      const NodeId v = static_cast<NodeId>(c) * s + i;
      inst.cliques[c].push_back(v);
      inst.clique_of[v] = c;
      for (int j = i + 1; j < s; ++j)
        edges.emplace_back(v, static_cast<NodeId>(c) * s + j);
    }
    // Local vertex 0 links forward to local vertex 1 of the next clique.
    const NodeId u = static_cast<NodeId>(c) * s;
    const NodeId w = static_cast<NodeId>((c + 1) % t) * s + 1;
    edges.emplace_back(std::min(u, w), std::max(u, w));
  }
  inst.graph = Graph(n, std::move(edges), kNormalizedUniqueEdges);
  DC_CHECK(inst.graph.max_degree() == s);
  inst.graph.set_ids(shuffled_ids(n, seed));
  return inst;
}

}  // namespace deltacolor
