// Randomized message-passing algorithms on the SyncRunner engine: Luby's
// MIS and (Delta+1)-coloring by color trials, the registry's `mis` and
// `trial` algorithms. A node's transition function cannot read anything
// but its neighbors' previous-round states, so the LOCAL information
// discipline is structural.
//
// Both algorithms accept EngineOptions: results are bit-identical across
// worker counts (per-node randomness keys on (seed, id, round), so the
// schedule cannot leak in). The color trials step only their undecided
// nodes (SyncRunner::run_live_until): a committed node is a fixpoint, and
// the remainder thins fast. MIS runs full sweeps (run_until): its
// undecided set stays wide through its rounds, and on the 1M-node blow-up
// stepping only its live nodes measured slower (EXPERIMENTS.md, "Color
// trials on the live list"). Both keep a RoundLedger& signature — the
// registry and the benchmark harness call them that way — and charge their
// rounds through a LocalContext on it (the one charge path), with the
// wall-clock next to the round count (RoundLedger::charge_time).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "local/ledger.hpp"
#include "local/sync_runner.hpp"

namespace deltacolor {

/// Luby's MIS, each iteration as two SyncRunner rounds (draw-compare,
/// then neighbor elimination). Returns the independent-set flags.
std::vector<bool> mis_message_passing(const Graph& g, std::uint64_t seed,
                                      RoundLedger& ledger,
                                      const std::string& phase = "mis-mp",
                                      const EngineOptions& engine = {});

/// Randomized (Delta+1)-coloring by color trials, one trial per two
/// SyncRunner rounds (try, then commit-if-unique).
std::vector<Color> color_trial_message_passing(
    const Graph& g, std::uint64_t seed, RoundLedger& ledger,
    const std::string& phase = "color-trial-mp",
    const EngineOptions& engine = {});

}  // namespace deltacolor
