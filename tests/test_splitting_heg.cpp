// Tests for degree splitting (Lemma 21 / Corollary 22 role) and hyperedge
// grabbing (Lemma 5 role).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <string>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "local/context.hpp"
#include "primitives/degree_splitting.hpp"
#include "primitives/heg.hpp"

namespace deltacolor {
namespace {

// --- degree splitting ---------------------------------------------------------

TEST(DegreeSplit, PartitionCoversAllEdges) {
  Graph g = random_regular(200, 8, 1);
  RoundLedger ledger;
  LocalContext ctx(ledger, {}, 5);
  const auto split = degree_split(g, 2, 32, ctx);
  ASSERT_EQ(split.part.size(), g.num_edges());
  EXPECT_EQ(split.num_parts, 4);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_GE(split.part[e], 0);
    EXPECT_LT(split.part[e], 4);
  }
  // part_degrees over all parts sums to the degree.
  std::vector<int> total(g.num_nodes(), 0);
  for (int p = 0; p < 4; ++p) {
    const auto deg = part_degrees(g, split, p);
    for (NodeId v = 0; v < g.num_nodes(); ++v) total[v] += deg[v];
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(total[v], g.degree(v));
}

class SplitDiscrepancyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SplitDiscrepancyTest, PerNodeDiscrepancyBounded) {
  const auto [levels, degree] = GetParam();
  Graph g = random_regular(600, degree, 77 + degree);
  RoundLedger ledger;
  LocalContext ctx(ledger, {}, 9);
  const int segment_length = 32;
  const auto split = degree_split(g, levels, segment_length, ctx);
  const int parts = 1 << levels;
  // Corollary 22 shape: each part's per-node degree lies within
  // deg/2^i +- (eps * deg + a). Our empirical bound uses eps = 2/segment
  // per level plus the alternation defect of 3 per level.
  const double eps = 2.0 * levels / segment_length;
  const double a = 3.0 * levels + 1;
  for (int p = 0; p < parts; ++p) {
    const auto deg = part_degrees(g, split, p);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const double expect = static_cast<double>(g.degree(v)) / parts;
      const double slack = eps * g.degree(v) + a;
      EXPECT_GE(deg[v], std::floor(expect - slack))
          << "node " << v << " part " << p;
      EXPECT_LE(deg[v], std::ceil(expect + slack))
          << "node " << v << " part " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LevelsAndDegrees, SplitDiscrepancyTest,
                         ::testing::Values(std::tuple{1, 8},
                                           std::tuple{1, 16},
                                           std::tuple{2, 16},
                                           std::tuple{2, 32},
                                           std::tuple{3, 32}));

TEST(DegreeSplit, SingleHalvingOnCycleIsNearPerfect) {
  // A cycle is one closed walk; alternation errs by at most the defects at
  // segment boundaries and the odd-cycle closure.
  Graph g = cycle_graph(257);
  RoundLedger ledger;
  LocalContext ctx(ledger, {}, 3);
  const auto split = degree_split(g, 1, 64, ctx);
  const auto deg0 = part_degrees(g, split, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_LE(deg0[v], 2);
}

TEST(DegreeSplit, RejectsBadParameters) {
  Graph g = cycle_graph(8);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  EXPECT_THROW(degree_split(g, 0, 16, ctx), std::logic_error);
  EXPECT_THROW(degree_split(g, 1, 1, ctx), std::logic_error);
}

// --- hyperedge grabbing -------------------------------------------------------

// Random multihypergraph with all vertex degrees >= delta and rank <= r.
Hypergraph random_heg_instance(int num_vertices, int delta, int rank,
                               std::uint64_t seed) {
  Rng rng(seed);
  Hypergraph h;
  h.num_vertices = num_vertices;
  // Enough hyperedges that average degree exceeds delta, then patch any
  // deficient vertex with extra singleton-ish edges.
  const int num_edges = (num_vertices * delta) / std::max(1, rank / 2) + 1;
  for (int f = 0; f < num_edges; ++f) {
    std::vector<int> members;
    const int size = 1 + static_cast<int>(rng.below(rank));
    for (int i = 0; i < size; ++i)
      members.push_back(static_cast<int>(rng.below(num_vertices)));
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    h.add_edge(members);
  }
  // Patch degrees.
  std::vector<int> deg(num_vertices, 0);
  for (int f = 0; f < h.num_edges(); ++f)
    for (const int v : h.edge(f)) ++deg[v];
  for (int v = 0; v < num_vertices; ++v)
    while (deg[v] < delta) {
      h.add_edge({v});
      ++deg[v];
    }
  h.build_incidence();
  return h;
}

TEST(Heg, RankAndDegreeAccessors) {
  Hypergraph h;
  h.num_vertices = 3;
  h.add_edge({0, 1});
  h.add_edge({1, 2, 0});
  h.add_edge({2});
  h.build_incidence();
  EXPECT_EQ(h.rank(), 3);
  EXPECT_EQ(h.min_degree(), 2);
}

TEST(Heg, CentralizedSolvesFeasibleInstances) {
  const Hypergraph h = random_heg_instance(60, 6, 4, 1);
  const HegResult r = solve_heg_centralized(h);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(is_valid_heg(h, r));
}

TEST(Heg, DistributedMatchesCentralizedFeasibility) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Hypergraph h = random_heg_instance(80, 7, 5, seed);
    RoundLedger ledger;
    LocalContext ctx(ledger);
    const HegResult dist = solve_heg(h, ctx);
    const HegResult cent = solve_heg_centralized(h);
    EXPECT_EQ(dist.complete, cent.complete) << "seed " << seed;
    EXPECT_TRUE(is_valid_heg(h, dist, dist.complete));
    EXPECT_GT(ledger.total(), 0);
  }
}

TEST(Heg, SinklessOrientationViaHeg) {
  // Rank-2 HEG on a 3-regular graph == sinkless orientation: every vertex
  // grabs (orients outward) one incident edge, no edge claimed twice.
  const Graph g = random_regular(128, 3, 5);
  Hypergraph h;
  h.num_vertices = static_cast<int>(g.num_nodes());
  for (const auto& [u, v] : g.edges())
    h.add_edge({static_cast<int>(u), static_cast<int>(v)});
  h.build_incidence();
  EXPECT_EQ(h.rank(), 2);
  EXPECT_EQ(h.min_degree(), 3);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const HegResult r = solve_heg(h, ctx);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(is_valid_heg(h, r));
}

TEST(Heg, InfeasibleInstanceReportsIncomplete) {
  // Two vertices, one shared hyperedge: only one can grab it.
  Hypergraph h;
  h.num_vertices = 2;
  h.add_edge({0, 1});
  h.build_incidence();
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const HegResult r = solve_heg(h, ctx);
  EXPECT_FALSE(r.complete);
  EXPECT_TRUE(is_valid_heg(h, r, /*require_complete=*/false));
  EXPECT_FALSE(solve_heg_centralized(h).complete);
}

// --- solve_heg against its allocate-per-search form ---------------------------

// Transcribed from solve_heg before its search kept the visit arrays
// across calls: the same greedy waves and phase doubling, with a search
// that allocates and fills both |E_h| and |V_h| arrays on every call.
// `searches` counts the calls, so a test can show that its instance
// exercised the search.
std::vector<int> reference_find_augmenting_path(
    const Hypergraph& h, const std::vector<int>& grabber, int source,
    int depth_cap, const NodeMask& blocked_vertex,
    const NodeMask& blocked_edge) {
  const int num_edges = h.num_edges();
  std::vector<int> prev_vertex_of_edge(num_edges, -2);  // -2 = unvisited
  std::vector<int> prev_edge_of_vertex(h.num_vertices, -2);
  std::queue<int> frontier;  // vertices
  prev_edge_of_vertex[source] = -1;
  frontier.push(source);
  int free_edge = -1;
  int depth = 0;
  while (!frontier.empty() && free_edge == -1 && depth < depth_cap) {
    std::queue<int> next;
    while (!frontier.empty() && free_edge == -1) {
      const int v = frontier.front();
      frontier.pop();
      for (const int f : h.incidence(v)) {
        if (prev_vertex_of_edge[f] != -2 || blocked_edge[f]) continue;
        prev_vertex_of_edge[f] = v;
        const int w = grabber[f];
        if (w == -1) {
          free_edge = f;
          break;
        }
        if (prev_edge_of_vertex[w] != -2 || blocked_vertex[w]) continue;
        prev_edge_of_vertex[w] = f;
        next.push(w);
      }
    }
    frontier.swap(next);
    ++depth;
  }
  if (free_edge == -1) return {};
  std::vector<int> path;
  int f = free_edge;
  for (;;) {
    path.push_back(f);
    const int v = prev_vertex_of_edge[f];
    path.push_back(v);
    if (v == source) break;
    f = prev_edge_of_vertex[v];
  }
  std::reverse(path.begin(), path.end());
  return path;
}

HegResult reference_solve_heg(const Hypergraph& h, int* searches) {
  HegResult res;
  const int num_edges = h.num_edges();
  res.grabbed_edge.assign(h.num_vertices, -1);
  res.grabber.assign(num_edges, -1);
  for (int wave = 0; wave < 3; ++wave) {
    for (int v = 0; v < h.num_vertices; ++v) {
      if (res.grabbed_edge[v] != -1) continue;
      for (const int f : h.incidence(v)) {
        if (res.grabber[f] == -1) {
          res.grabber[f] = v;
          res.grabbed_edge[v] = f;
          break;
        }
      }
    }
    res.rounds += 2;
  }
  *searches = 0;
  int radius = 2;
  const int hard_cap = 4 * (h.num_vertices + num_edges) + 16;
  while (true) {
    std::vector<int> free_vertices;
    for (int v = 0; v < h.num_vertices; ++v)
      if (res.grabbed_edge[v] == -1) free_vertices.push_back(v);
    if (free_vertices.empty()) {
      res.complete = true;
      break;
    }
    NodeMask blocked_vertex(h.num_vertices, 0);
    NodeMask blocked_edge(num_edges, 0);
    bool any = false;
    for (const int v : free_vertices) {
      if (blocked_vertex[v]) continue;
      ++*searches;
      const auto path = reference_find_augmenting_path(
          h, res.grabber, v, radius, blocked_vertex, blocked_edge);
      if (path.empty()) continue;
      for (std::size_t i = 0; i < path.size(); i += 2) {
        res.grabbed_edge[path[i]] = path[i + 1];
        res.grabber[path[i + 1]] = path[i];
        blocked_vertex[path[i]] = 1;
        blocked_edge[path[i + 1]] = 1;
      }
      any = true;
    }
    res.rounds += 3 * radius;
    if (!any) {
      if (radius >= hard_cap) break;
      radius *= 2;
    }
  }
  return res;
}

// Hard-clique-shaped HEG instance: `cliques` cliques of `k` sub-cliques
// (the vertices); every hyperedge is an inter-clique edge proposed by one
// sub-clique on each side (rank 2), `per_vertex` per sub-clique. Vertex
// ids are shuffled against the edge order, so the greedy waves' first-fit
// leaves sub-cliques whose every edge a lower id took.
Hypergraph blowup_shaped_heg(int cliques, int k, int per_vertex,
                             std::uint64_t seed) {
  Rng rng(seed);
  const int n = cliques * k;
  std::vector<int> id(n);
  std::iota(id.begin(), id.end(), 0);
  for (int i = n - 1; i > 0; --i)
    std::swap(id[i], id[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  Hypergraph h;
  h.num_vertices = n;
  for (int v = 0; v < n; ++v) {
    const int clique = v / k;
    for (int j = 0; j < per_vertex; ++j) {
      int other = static_cast<int>(rng.below(n - k));
      if (other >= clique * k) other += k;  // skip v's own clique
      h.add_edge({std::min(id[v], id[other]), std::max(id[v], id[other])});
    }
  }
  h.build_incidence();
  return h;
}

void expect_same_heg(const Hypergraph& h, const std::string& label) {
  int searches = 0;
  const HegResult want = reference_solve_heg(h, &searches);
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const HegResult got = solve_heg(h, ctx);
  EXPECT_EQ(got.grabbed_edge, want.grabbed_edge) << label;
  EXPECT_EQ(got.grabber, want.grabber) << label;
  EXPECT_EQ(got.rounds, want.rounds) << label;
  EXPECT_EQ(got.complete, want.complete) << label;
  EXPECT_EQ(ledger.total(), want.rounds) << label;
  // The instance must leave work for the search, or it tests nothing.
  EXPECT_GE(searches, 8) << label;
}

TEST(HegReference, BlowupShapedInstancesMatch) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    for (const int cliques : {16, 48})
      expect_same_heg(blowup_shaped_heg(cliques, 4, 1, seed),
                      "blowup cliques=" + std::to_string(cliques) +
                          " seed=" + std::to_string(seed));
}

TEST(HegReference, RandomInstancesMatch) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    for (const int rank : {6, 8})
      expect_same_heg(random_heg_instance(200, 3, rank, seed),
                      "random rank=" + std::to_string(rank) +
                          " seed=" + std::to_string(seed));
}

TEST(Heg, ValidityCheckerCatchesBadGrabs) {
  Hypergraph h;
  h.num_vertices = 2;
  h.add_edge({0});
  h.add_edge({1});
  h.add_edge({0, 1});
  h.build_incidence();
  HegResult r;
  r.grabbed_edge = {2, 2};  // double grab
  r.grabber = {-1, -1, 0};
  EXPECT_FALSE(is_valid_heg(h, r));
  r.grabbed_edge = {1, 2};  // vertex 0 not a member of edge 1
  EXPECT_FALSE(is_valid_heg(h, r));
  r.grabbed_edge = {0, 2};
  EXPECT_TRUE(is_valid_heg(h, r));
}

}  // namespace
}  // namespace deltacolor
