// Algorithm registry: one catalog mapping stable names to context-driven
// entry points, shared by the `dcolor` CLI and the bench harnesses so the
// two never drift apart. Every entry accepts the same AlgorithmRequest
// (seed + EngineOptions) and runs through the LocalContext execution
// layer, so `--threads` reaches the nested SyncRunner stages of every
// registered algorithm uniformly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/errors.hpp"
#include "graph/graph.hpp"
#include "local/context.hpp"
#include "local/ledger.hpp"

namespace deltacolor {

/// Uniform input to every registered algorithm.
struct AlgorithmRequest {
  std::uint64_t seed = 1;
  /// Worker threads for every engine-stepped stage. Results are
  /// bit-identical across settings.
  EngineOptions engine;
  /// Opt-in validation oracle (dcolor --validate). The composed pipelines
  /// (det, rand) honor kEnd / kPhase by throwing InvariantViolation on an
  /// improper coloring; primitive entries ignore it (their checkers
  /// already run unconditionally and set `ok`).
  ValidateMode validate = ValidateMode::kOff;
};

/// Uniform output. Coloring algorithms fill `color` and set `palette` to
/// the number of colors they are allowed; set-valued algorithms (MIS,
/// maximal matching, ruling sets) fill `in_set` (indexed by node, or by
/// edge for matchings) and leave palette = 0.
struct AlgorithmResult {
  std::vector<Color> color;
  std::vector<bool> in_set;
  RoundLedger ledger;
  int palette = 0;
  bool set_on_edges = false;  ///< in_set is indexed by EdgeId
  bool ok = false;            ///< output verified (proper coloring / valid set)
  std::string summary;        ///< one human-readable result line
};

struct AlgorithmEntry {
  std::string_view name;
  std::string_view description;
  /// Throws DomainError when g lies outside the entry's domain (det, rand)
  /// or has no Delta-coloring (det, rand, brooks).
  AlgorithmResult (*run)(const Graph& g, const AlgorithmRequest& req);
};

/// The full catalog, in listing order.
std::span<const AlgorithmEntry> algorithm_registry();

/// Exact-name lookup; nullptr when unknown.
const AlgorithmEntry* find_algorithm(std::string_view name);

/// Closest registered names by edit distance (for "unknown algorithm"
/// diagnostics), best first.
std::vector<std::string_view> suggest_algorithms(std::string_view name,
                                                 std::size_t max_results = 3);

/// Closest of `candidates` to `name` by edit distance, best first, keeping
/// only plausible typos — the rule suggest_algorithms applies to the
/// registry, for any other vocabulary (e.g. the CLI's flag names).
std::vector<std::string_view> suggest_names(
    std::string_view name, std::span<const std::string_view> candidates,
    std::size_t max_results = 3);

}  // namespace deltacolor
