// Loopholes (Definition 6) and their detection.
//
// A loophole is a subgraph through which a partial Delta-coloring can
// always be completed (it is deg-list colorable, Lemma 7):
//   1. a single vertex of degree < Delta, or
//   2. a non-clique even cycle; the algorithm only uses loopholes of at
//      most 6 vertices (Definition 8), i.e. 4- and 6-cycles.
//
// Two detectors are provided:
//   * a brute-force reference (exact, exponential in the size budget; for
//     tests and small graphs), and
//   * a structure-aware detector for clique-ACD dense graphs that runs the
//     case analysis of Lemma 9: degree deficits (a), non-clique ACs (b),
//     outsiders with two neighbors in an AC (c), doubly-linked AC pairs
//     (d), AC triangles whose connector parity yields an even cycle (e),
//     and short cycles of the cross-edge subgraph (f). Every detected
//     loophole is constructive (an explicit witness subgraph), and the
//     phase machinery re-checks all structural consequences of hardness at
//     runtime, so an exotic missed pattern can only cost work, never
//     correctness.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "acd/acd.hpp"
#include "graph/graph.hpp"
#include "local/ledger.hpp"

namespace deltacolor {

struct Loophole {
  /// Singleton {v} with deg(v) < Delta, or the vertices of a non-clique
  /// even cycle in cyclic order (4 or 6 of them).
  std::vector<NodeId> vertices;

  bool is_degree_loophole() const { return vertices.size() == 1; }
};

/// Checks that `l` really is a loophole of g (witness validation).
bool is_valid_loophole(const Graph& g, const Loophole& l);

struct LoopholeSet {
  /// Detected loopholes (the voted set L of Algorithm 3 line 1).
  std::vector<Loophole> loopholes;
  /// Per node: index of one loophole containing it, or -1.
  std::vector<int> vote_of;

  bool vertex_in_loophole(NodeId v) const { return vote_of[v] != -1; }

  /// Appends a (validated) loophole and registers votes for its members.
  void add(const Graph& g, Loophole l);
};

/// Exact reference detector: for every vertex, searches a loophole of at
/// most `max_vertices` (<= 6) vertices through it. Exponential in Delta;
/// use on small graphs only.
LoopholeSet find_loopholes_bruteforce(const Graph& g, int max_vertices = 6);

/// Loophole through one vertex (brute force; nullopt if none).
std::optional<Loophole> find_loophole_through(const Graph& g, NodeId v,
                                              int max_vertices = 6);

/// Structure-aware detector for dense graphs with a computed ACD.
/// O(1) LOCAL rounds (every case looks at a bounded-radius neighborhood);
/// charged to `ledger` through a LocalContext on it, like every charge.
LoopholeSet find_loopholes_dense(const Graph& g, const Acd& acd,
                                 RoundLedger& ledger,
                                 const std::string& phase = "loopholes");

}  // namespace deltacolor
