// Validity checkers for all solution objects. Every algorithm output in the
// library is checked against these in tests, and benches assert them before
// reporting a measurement.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace deltacolor {

struct ColoringReport {
  bool proper = true;           ///< no monochromatic edge
  bool complete = true;         ///< every node colored (color >= 0)
  Color max_color = kNoColor;   ///< largest color used
  int colors_used = 0;          ///< number of distinct colors
  std::size_t conflicts = 0;    ///< count of monochromatic edges
  std::size_t uncolored = 0;    ///< count of uncolored (negative) nodes
  std::string describe() const;
};

ColoringReport check_coloring(const Graph& g, const std::vector<Color>& color);

/// First monochromatic edge of a *partial* coloring (edges with an
/// uncolored endpoint are ignored), or nullopt when the partial coloring
/// is proper. Every pipeline in the library keeps its partial coloring
/// proper between phases, which makes this the inter-phase invariant the
/// --validate=phase oracle enforces.
std::optional<std::pair<NodeId, NodeId>> find_partial_conflict(
    const Graph& g, const std::vector<Color>& color);

/// True iff `color` is a complete proper coloring with colors in
/// {0, .., num_colors-1}.
bool is_proper_coloring(const Graph& g, const std::vector<Color>& color,
                        int num_colors);

/// True iff `color` is a complete proper Delta-coloring of g.
bool is_delta_coloring(const Graph& g, const std::vector<Color>& color);

/// Matching checks: `in_matching` flags edges by EdgeId.
bool is_matching(const Graph& g, const std::vector<bool>& in_matching);
bool is_maximal_matching(const Graph& g, const std::vector<bool>& in_matching);

/// Independent-set checks: `in_set` flags nodes.
bool is_independent_set(const Graph& g, const std::vector<bool>& in_set);
bool is_maximal_independent_set(const Graph& g,
                                const std::vector<bool>& in_set);

/// True iff every node of g is within distance `radius` of a flagged node.
bool dominates_within(const Graph& g, const std::vector<bool>& in_set,
                      int radius);

/// True iff flagged nodes are pairwise at distance > `min_distance`.
bool pairwise_distance_greater(const Graph& g, const std::vector<bool>& in_set,
                               int min_distance);

/// (alpha, beta)-ruling set: members pairwise at distance >= alpha, every
/// node within distance beta of a member.
bool is_ruling_set(const Graph& g, const std::vector<bool>& in_set, int alpha,
                   int beta);

/// True iff `nodes` induces a clique in g.
bool is_clique(const Graph& g, const std::vector<NodeId>& nodes);

/// List-coloring validity: proper and every node's color is in its list.
bool respects_lists(const Graph& g, const std::vector<Color>& color,
                    const std::vector<std::vector<Color>>& lists);

}  // namespace deltacolor
