// Equivalence suite for the sort-free CSR builder: the counting-sort
// constructor (with every hint combination, and built concurrently on
// pool workers) must reproduce the sort+unique builder it replaced
// (`legacy_build` below, the oracle) bit for bit — same edge list,
// neighbor order, arc/edge alignment, offsets, and max degree — on random
// edge soups and on every generator family.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace deltacolor {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

// The sort+unique builder: a global std::sort of the edge list, then a
// per-node arc sort. Its arrays reach a Graph through from_external, so
// the oracle needs no access to Graph's internals.
Graph legacy_build(NodeId num_nodes, EdgeList edges) {
  struct Arrays {
    std::vector<std::uint64_t> offsets;
    std::vector<NodeId> adjacency;
    std::vector<EdgeId> arc_edge;
    EdgeList edges;
    std::vector<std::uint64_t> ids;
  };
  auto a = std::make_shared<Arrays>();
  for (auto& [u, v] : edges) {
    DC_CHECK_MSG(u != v, "self loop at node " << u);
    DC_CHECK_MSG(u < num_nodes && v < num_nodes,
                 "edge (" << u << "," << v << ") out of range n=" << num_nodes);
    if (u > v) std::swap(u, v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  a->edges = std::move(edges);

  a->offsets.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const auto& [u, v] : a->edges) {
    ++a->offsets[u + 1];
    ++a->offsets[v + 1];
  }
  std::partial_sum(a->offsets.begin(), a->offsets.end(), a->offsets.begin());

  a->adjacency.resize(a->edges.size() * 2);
  a->arc_edge.resize(a->edges.size() * 2);
  std::vector<std::size_t> cursor(a->offsets.begin(), a->offsets.end() - 1);
  for (EdgeId e = 0; e < a->edges.size(); ++e) {
    const auto [u, v] = a->edges[e];
    a->adjacency[cursor[u]] = v;
    a->arc_edge[cursor[u]++] = e;
    a->adjacency[cursor[v]] = u;
    a->arc_edge[cursor[v]++] = e;
  }
  // Sort each node's arcs by neighbor index, keeping arc_edge aligned.
  int max_degree = 0;
  for (NodeId v = 0; v < num_nodes; ++v) {
    const std::size_t lo = a->offsets[v], hi = a->offsets[v + 1];
    std::vector<std::pair<NodeId, EdgeId>> arcs;
    arcs.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i)
      arcs.emplace_back(a->adjacency[i], a->arc_edge[i]);
    std::sort(arcs.begin(), arcs.end());
    for (std::size_t i = lo; i < hi; ++i) {
      a->adjacency[i] = arcs[i - lo].first;
      a->arc_edge[i] = arcs[i - lo].second;
    }
    max_degree = std::max(max_degree, static_cast<int>(hi - lo));
  }
  a->ids = identity_ids(num_nodes);

  Graph::ExternalCsr csr;
  csr.offsets = a->offsets.data();
  csr.adjacency = a->adjacency.data();
  csr.arc_edge = a->arc_edge.data();
  csr.edges = a->edges.data();
  csr.ids = a->ids.data();
  csr.num_nodes = num_nodes;
  csr.num_edges = static_cast<EdgeId>(a->edges.size());
  csr.max_degree = max_degree;
  return Graph::from_external(csr, std::move(a));
}

// Exact structural equality through the public API: edges() pins edge ids,
// neighbors()/incident_edges() pin the CSR arrays, and the per-node spans
// walk offsets_ so any offset drift shows up as a span mismatch.
void expect_identical(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  EXPECT_EQ(got.max_degree(), want.max_degree());
  const auto got_edges = got.edges();
  const auto want_edges = want.edges();
  EXPECT_TRUE(std::equal(got_edges.begin(), got_edges.end(),
                         want_edges.begin(), want_edges.end()));
  for (NodeId v = 0; v < want.num_nodes(); ++v) {
    const auto gn = got.neighbors(v);
    const auto wn = want.neighbors(v);
    ASSERT_EQ(gn.size(), wn.size()) << "degree mismatch at node " << v;
    EXPECT_TRUE(std::equal(gn.begin(), gn.end(), wn.begin()))
        << "adjacency mismatch at node " << v;
    const auto ge = got.incident_edges(v);
    const auto we = want.incident_edges(v);
    ASSERT_EQ(ge.size(), we.size());
    EXPECT_TRUE(std::equal(ge.begin(), ge.end(), we.begin()))
        << "arc/edge alignment mismatch at node " << v;
  }
}

// A messy edge list: reversed pairs, duplicates (both orders), and a
// skewed degree distribution so some counting-sort buckets are large.
EdgeList random_soup(NodeId n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  EdgeList edges;
  edges.reserve(m);
  while (edges.size() < m) {
    NodeId u = static_cast<NodeId>(rng.below(n));
    // Skew: half the endpoints land in the first quarter of the id space.
    NodeId v = static_cast<NodeId>(rng.below(rng.chance(0.5) ? n : n / 4 + 1));
    if (u == v) continue;
    if (rng.chance(0.5)) std::swap(u, v);  // deliberately denormalized
    edges.emplace_back(u, v);
    if (rng.chance(0.3)) edges.push_back(edges.back());  // duplicates
  }
  return edges;
}

EdgeList normalized_unique(EdgeList edges) {
  for (auto& [u, v] : edges)
    if (u > v) std::swap(u, v);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

TEST(CsrBuilder, MatchesLegacyOnRandomSoup) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const NodeId n = 200 + 50 * static_cast<NodeId>(seed);
    const EdgeList soup = random_soup(n, 8 * n, seed);
    const Graph want = legacy_build(n, soup);
    expect_identical(Graph(n, soup), want);
    expect_identical(Graph(n, soup, kUnsortedEdges), want);
  }
}

TEST(CsrBuilder, HintedPathsMatchLegacy) {
  const NodeId n = 300;
  const EdgeList soup = random_soup(n, 6 * n, 7);
  const Graph want = legacy_build(n, soup);
  const EdgeList clean = normalized_unique(soup);
  expect_identical(Graph(n, clean, kSortedUniqueEdges), want);
  expect_identical(Graph(n, clean, kNormalizedUniqueEdges), want);
  expect_identical(Graph(n, clean, EdgeListHints{true, false, false}), want);
  // Sorted-but-not-unique: duplicates adjacent after the sort.
  EdgeList sorted_dups = soup;
  for (auto& [u, v] : sorted_dups)
    if (u > v) std::swap(u, v);
  std::sort(sorted_dups.begin(), sorted_dups.end());
  expect_identical(Graph(n, sorted_dups, EdgeListHints{true, false, true}),
                   want);
}

// The builder itself is serial; graphs are built in parallel as
// independent builds on pool workers, the way concurrent sweep cells
// build their instances. Every build must match the oracle bit for bit,
// whichever worker ran it.
TEST(CsrBuilder, ParallelBuildIsBitIdentical) {
  const NodeId n = 500;
  const EdgeList soup = random_soup(n, 10 * n, 11);
  const EdgeList clean = normalized_unique(soup);
  const Graph want = legacy_build(n, soup);
  for (const int workers : {2, 3, 8}) {
    const auto slots = static_cast<std::size_t>(2 * workers);
    std::vector<std::optional<Graph>> built(slots);
    ThreadPool::shared(workers).for_range(
        0, slots, [&](int, std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) {
            if (i % 2 == 0)
              built[i].emplace(n, soup, kUnsortedEdges);
            else
              built[i].emplace(n, clean, kSortedUniqueEdges);
          }
        });
    for (std::size_t i = 0; i < slots; ++i) {
      ASSERT_TRUE(built[i].has_value()) << "workers=" << workers;
      expect_identical(*built[i], want);
    }
  }
}

TEST(CsrBuilder, RejectsSelfLoopsAndOutOfRange) {
  EXPECT_THROW(Graph(4, {{2, 2}}), std::logic_error);
  EXPECT_THROW(Graph(4, {{0, 1}, {3, 3}}, kUnsortedEdges), std::logic_error);
  EXPECT_THROW(Graph(3, {{0, 7}}), std::logic_error);
  EXPECT_THROW(legacy_build(4, {{2, 2}}), std::logic_error);
}

TEST(CsrBuilder, IsolatedNodesAndEmptyGraphs) {
  expect_identical(Graph(0, {}), legacy_build(0, {}));
  expect_identical(Graph(9, {}), legacy_build(9, {}));
  const EdgeList one = {{7, 3}};
  expect_identical(Graph(9, one), legacy_build(9, one));
}

// Every generator family must survive its declared hints: the generators
// hand the builder pre-structured edge lists, so a wrong promise would
// surface here as a mismatch against rebuilding from the raw edge pairs.
TEST(CsrBuilder, GeneratorFamiliesMatchRebuild) {
  const auto check = [](const Graph& g) {
    expect_identical(g, legacy_build(g.num_nodes(), EdgeList(g.edges().begin(),
                                                             g.edges().end())));
  };
  check(path_graph(17));
  check(cycle_graph(12));
  check(complete_graph(9));
  check(complete_bipartite(5, 8));
  check(star_graph(10));
  check(torus_grid(6, 7));
  check(torus_grid(2, 7));
  check(torus_grid(5, 2));
  check(random_tree(64, 5));
  check(random_graph(80, 0.1, 6));
  check(random_regular(64, 4, 7));
  CliqueInstanceOptions opt;
  opt.num_cliques = 16;
  opt.delta = 8;
  opt.clique_size = 8;
  opt.easy_fraction = 0.25;
  opt.seed = 9;
  check(clique_blowup_instance(opt).graph);
  check(clique_ring(8, 6, 3).graph);
}

}  // namespace
}  // namespace deltacolor
