// Hyperedge grabbing (HEG): every vertex must grab one incident hyperedge
// such that no hyperedge is grabbed by more than one vertex (equivalently,
// hypergraph sinkless orientation; Lemma 5 of the paper, [BMN+25]).
//
// Solvability: a solution is a bipartite matching (vertices x hyperedges)
// saturating all vertices; Hall's condition holds whenever the minimum
// degree delta exceeds the rank r, and the paper's instances guarantee
// delta > 1.1 r (Lemma 11). The slack makes the vertex side expand by a
// factor delta/r, so augmenting paths have length O(log_{delta/r} n).
//
// Substitution note (DESIGN.md): the BMN+25 algorithm is replaced by a
// distributed phase-doubling augmenting-path solver that exploits exactly
// the same expansion; bench E8 verifies the logarithmic round shape, and a
// centralized Hopcroft-Karp matcher provides ground truth in tests.
#pragma once

#include <vector>

#include "local/context.hpp"
#include "primitives/hypergraph.hpp"

namespace deltacolor {

struct HegResult {
  /// grabbed_edge[v] = hyperedge grabbed by vertex v (-1 if the instance is
  /// infeasible for v — never happens when min_degree > rank).
  std::vector<int> grabbed_edge;
  /// grabber[f] = vertex grabbing hyperedge f, or -1.
  std::vector<int> grabber;
  int rounds = 0;
  bool complete = false;  ///< every vertex grabbed an edge
};

/// Distributed-flavored HEG solver. `h` must have build_incidence() called.
/// Reads H through its CSR spans (edge(f), incidence(v)).
/// The augmenting-path search is a centralized stand-in for the BMN+25
/// algorithm (see the substitution note above): it is order-dependent, so
/// it is *not* stepped through the engine; only round accounting and the
/// execution context flow through LocalContext. Default phase "heg".
HegResult solve_heg(const Hypergraph& h, LocalContext& ctx);

/// Centralized Hopcroft-Karp saturating matcher (ground truth for tests).
HegResult solve_heg_centralized(const Hypergraph& h);

/// Validity check: every grab is incident, no hyperedge grabbed twice, and
/// (if `require_complete`) every vertex grabbed something.
bool is_valid_heg(const Hypergraph& h, const HegResult& r,
                  bool require_complete = true);

}  // namespace deltacolor
