// Hard/easy almost-clique classification (Definition 8) and the structural
// consequences of hardness (Lemma 9), verified at runtime.
#pragma once

#include <string>
#include <vector>

#include "acd/acd.hpp"
#include "core/loopholes.hpp"
#include "graph/graph.hpp"

namespace deltacolor {

struct Hardness {
  /// Per AC: true iff no detected loophole intersects it.
  std::vector<bool> is_hard;
  /// Per node: member of a hard clique.
  std::vector<bool> in_hard;
  int num_hard = 0;
  int num_easy = 0;
};

/// Classifies ACs. Every hard clique is checked against Lemma 9: it is a
/// clique, every member has degree exactly Delta, and no outsider has two
/// neighbors inside — violations throw, since they would certify a
/// loophole the detector missed.
Hardness classify_hardness(const Graph& g, const Acd& acd,
                           const LoopholeSet& loopholes);

}  // namespace deltacolor
