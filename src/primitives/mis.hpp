// Maximal independent set: deterministic class-greedy over a (Delta+1)-class
// schedule, Linial then KW (O(Delta log Delta + log* n) rounds)
// [Gha16-role]. Luby's randomized MIS is mis_message_passing
// (local/message_passing.hpp).
//
// The class sweep is stepped through the SyncRunner engine via
// LocalContext, one engine round per color class. Results are
// bit-identical to the sequential reference at any worker count.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "local/context.hpp"

namespace deltacolor {

std::vector<bool> mis_deterministic(const Graph& g, LocalContext& ctx);

}  // namespace deltacolor
