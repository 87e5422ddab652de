// Almost-clique decomposition (ACD), Lemma 2 of the paper
// [HSS18, ACK19, AKM22, FHM23, HM24].
//
// The decomposition partitions V into V_sparse and almost cliques
// C_1, .., C_t such that for epsilon (default 1/63):
//   (i)   (1 - eps/4) Delta <= |C_i| <= (1 + eps) Delta,
//   (ii)  every v in C_i has >= (1 - eps) Delta neighbors inside C_i,
//   (iii) every u outside C_i has <= (1 - eps/2) Delta neighbors in C_i.
// Observation 3: every member of an AC has <= eps * Delta external
// neighbors. A graph is *dense* (Definition 4) when V_sparse is empty.
//
// Computation (O(1) LOCAL rounds): friend edges (common neighborhood
// >= (1 - eta) Delta), connected components of the friend graph among
// dense vertices form preliminary ACs, followed by the O(1)-round
// repair steps of [FHM23, HM24]: evict members violating (ii), absorb
// outsiders triggering (iii), dissolve components violating (i).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"
#include "local/ledger.hpp"

namespace deltacolor {

struct AcdParams {
  double epsilon = kAcdEpsilon;  ///< Lemma 2's epsilon (paper: 1/63)
  /// Friend threshold parameter eta: adjacent u, v are friends when
  /// |N(u) ∩ N(v)| >= (1 - eta) * Delta. If negative, eta is chosen
  /// automatically as max(epsilon, 3.5 / Delta) — the latter keeps
  /// Delta-cliques recognizable at moderate Delta, including cliques with
  /// one deleted edge whose members share only Delta - 3 common neighbors.
  double eta = -1.0;
  int max_repair_iterations = 20;
};

struct Acd {
  double epsilon = kAcdEpsilon;
  /// Almost-clique index per node; -1 for sparse nodes.
  std::vector<int> clique_of;
  /// Member lists, one per almost clique.
  std::vector<std::vector<NodeId>> cliques;
  /// Sparse nodes (empty iff the graph is dense, Definition 4).
  std::vector<NodeId> sparse;

  bool is_dense() const { return sparse.empty(); }
  int num_cliques() const { return static_cast<int>(cliques.size()); }
};

/// Computes the ACD in O(1) LOCAL rounds (charged to `ledger` through a
/// LocalContext on it, like every charge).
Acd compute_acd(const Graph& g, RoundLedger& ledger,
                const AcdParams& params = {},
                const std::string& phase = "acd");

/// Structural validation of Lemma 2 (i)-(iii) and Observation 3.
/// Returns a human-readable list of violations (empty = valid).
std::vector<std::string> validate_acd(const Graph& g, const Acd& acd);

}  // namespace deltacolor
