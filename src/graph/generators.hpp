// Graph generators.
//
// The dense-instance generators realize the paper's workload: graphs whose
// almost-clique decomposition has no sparse vertices (Definition 4), with a
// controllable mix of hard cliques (Definition 8) and easy almost cliques.
//
// Hard all-clique instances are built as clique blow-ups of a bipartite
// circulant "supergraph" R whose shift set is a Sidon set. Why this works
// (see DESIGN.md §workloads): any non-clique even cycle on <= 6 vertices of
// the blow-up must either (a) use only cross edges — excluded by making the
// cross-edge subgraph have girth > 6, (b) project to a 4-cycle of R —
// excluded by the Sidon property, or (c) project to a triangle or
// multi-edge of R — excluded since R is bipartite and simple. Vertices all
// have degree exactly Delta, so degree loopholes are absent too.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace deltacolor {

// --- elementary graphs -----------------------------------------------------

Graph path_graph(NodeId n);
Graph cycle_graph(NodeId n);
Graph complete_graph(NodeId n);
Graph complete_bipartite(NodeId a, NodeId b);
Graph star_graph(NodeId leaves);
/// Wrap-around grid, 4-regular when both sides are >= 3. A side of 2
/// wraps onto the edge it already has, so such a torus is 3-regular
/// (2 x 2: the 4-cycle).
Graph torus_grid(NodeId rows, NodeId cols);
Graph random_tree(NodeId n, std::uint64_t seed);
/// Erdos-Renyi G(n, p).
Graph random_graph(NodeId n, double p, std::uint64_t seed);
/// Random d-regular simple graph (pairing model with local repair).
Graph random_regular(NodeId n, int d, std::uint64_t seed);

// --- dense instances (the paper's workloads) --------------------------------

struct CliqueInstanceOptions {
  /// Number of cliques; rounded up to the generator's structural needs
  /// (even, and large enough for the Sidon-set supergraph).
  int num_cliques = 64;
  /// Maximum degree Delta of the produced graph.
  int delta = 16;
  /// Clique size s (<= delta). Every vertex has e = delta - s + 1 external
  /// ("cross") edges; s == delta is the paper's "extremely dense" case.
  int clique_size = 16;
  /// Fraction of cliques converted to easy almost cliques by deleting one
  /// intra-clique edge (creating two degree-(Delta-1) loophole vertices).
  double easy_fraction = 0.0;
  /// Seed for slot assignment, easification choice, and ID shuffling.
  std::uint64_t seed = 1;
  /// Install randomly permuted LOCAL identifiers (default) or identity.
  bool shuffle_ids = true;
};

struct CliqueInstance {
  Graph graph;
  int delta = 0;
  /// Ground-truth clusters, one vector of member nodes per clique.
  std::vector<std::vector<NodeId>> cliques;
  /// Clique index of each node.
  std::vector<int> clique_of;
  /// Which cliques were easified (had an intra edge removed).
  std::vector<bool> easified;
};

/// Dense instance made of cliques of size `clique_size`, every vertex of
/// degree exactly `delta` (except the two endpoints of each removed edge in
/// easified cliques). With easy_fraction == 0 every clique is hard.
CliqueInstance clique_blowup_instance(const CliqueInstanceOptions& options);

/// Smallest clique count clique_blowup_instance produces for (delta,
/// clique_size): its bipartite supergraph needs a minimum side (Sidon
/// shifts when clique_size < delta), and smaller num_cliques requests are
/// rounded up to it. Requires 3 <= clique_size <= delta.
int min_blowup_cliques(int delta, int clique_size);

/// Ring of t s-cliques where only two designated vertices per clique carry a
/// cross edge (to the previous/next clique). Delta equals s; vertices with
/// no cross edge have degree s - 1 < Delta, so every clique is easy.
/// Exercises the loophole/easy-clique pipeline (Algorithm 3) in isolation.
CliqueInstance clique_ring(int num_cliques, int clique_size,
                           std::uint64_t seed = 1);

// --- supergraph helpers (exposed for tests) ---------------------------------

/// Greedy Sidon set modulo-safe: `count` nonnegative integers with pairwise
/// distinct differences, built from the Erdos-Turan quadratic construction.
std::vector<int> sidon_set(int count);

/// Smallest prime >= n.
int next_prime(int n);

/// Girth of g computed by BFS from every node, capped: returns the true
/// girth if it is <= cap, otherwise cap + 1.
int girth_at_most(const Graph& g, int cap);

}  // namespace deltacolor
