// (2, beta)-ruling sets [Mau21, SEW13-role].
//
// Realized by the classic bit-peeling scheme over a Linial coloring: process
// the label bits from high to low; a candidate whose current bit is 0 and
// that has a candidate neighbor whose bit is 1 withdraws. Surviving
// candidates are independent (two adjacent survivors would share all label
// bits, contradicting properness), and every withdrawn node can charge a
// chain of length <= #bits to a survivor, so the domination radius is
// O(log(Delta^2)) = O(log Delta). Runs in O(log Delta + log* n) rounds.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "local/context.hpp"

namespace deltacolor {

struct RulingSetResult {
  std::vector<bool> in_set;
  /// Upper bound on the domination radius guaranteed by the construction,
  /// in hops (= label bits peeled). Benches/tests verify it.
  int domination_radius = 0;
};

/// (2, O(log Delta))-ruling set of g. Nodes flagged true are pairwise
/// non-adjacent and dominate g within domination_radius hops.
RulingSetResult ruling_set(const Graph& g, LocalContext& ctx);

}  // namespace deltacolor
