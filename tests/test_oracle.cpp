// The --validate oracle (local/oracle.hpp): corrupted colorings raise
// InvariantViolation naming the phase and a witness node, only in the
// modes that ask for it, and the checks change neither a pipeline's
// coloring nor its ledger.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/errors.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "local/oracle.hpp"
#include "registry/registry.hpp"

namespace deltacolor {
namespace {

// The path 0-1-2-3, properly colored 0 1 0 1.
Graph path4() { return Graph(4, {{0, 1}, {1, 2}, {2, 3}}); }
const std::vector<Color> kProper = {0, 1, 0, 1};

TEST(Oracle, PartialCheckNamesPhaseAndWitness) {
  const Graph g = path4();
  EXPECT_NO_THROW(
      validate_partial_coloring(g, kProper, "easy", ValidateMode::kPhase));
  std::vector<Color> corrupt = kProper;
  corrupt[2] = 1;  // edge (1, 2) turns monochromatic
  try {
    validate_partial_coloring(g, corrupt, "easy", ValidateMode::kPhase);
    FAIL() << "a monochromatic edge passed the phase check";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.phase(), "easy");
    EXPECT_EQ(e.node(), 1) << "the witness is the edge's lower endpoint";
    EXPECT_STREQ(e.what(),
                 "invariant-violation phase=easy node=1: monochromatic "
                 "edge (1, 2) color 1");
  }
}

TEST(Oracle, PartialCheckIgnoresUncoloredEndpoints) {
  const Graph g = path4();
  // Mid-pipeline colorings leave nodes uncolored; two adjacent uncolored
  // nodes, or an uncolored node beside a colored one, are no conflict.
  const std::vector<Color> partial = {kNoColor, kNoColor, 0, kNoColor};
  EXPECT_NO_THROW(
      validate_partial_coloring(g, partial, "rand-preshattering",
                                ValidateMode::kPhase));
  std::vector<Color> conflict = partial;
  conflict[3] = 0;  // edge (2, 3) is monochromatic among colored nodes
  EXPECT_THROW(validate_partial_coloring(g, conflict, "rand-preshattering",
                                         ValidateMode::kPhase),
               InvariantViolation);
}

TEST(Oracle, PartialCheckRunsOnlyUnderPhase) {
  const Graph g = path4();
  const std::vector<Color> corrupt = {0, 0, 0, 0};
  EXPECT_NO_THROW(
      validate_partial_coloring(g, corrupt, "easy", ValidateMode::kOff));
  EXPECT_NO_THROW(
      validate_partial_coloring(g, corrupt, "easy", ValidateMode::kEnd));
}

TEST(Oracle, FinalCheckThrowsUnderEndAndPhase) {
  const Graph g = path4();
  const std::vector<Color> corrupt = {0, 0, 1, 0};
  for (const ValidateMode mode : {ValidateMode::kEnd, ValidateMode::kPhase}) {
    EXPECT_NO_THROW(validate_final_coloring(g, kProper, true, "final", mode));
    try {
      validate_final_coloring(g, corrupt, false, "final", mode);
      FAIL() << "an invalid final coloring passed the end check";
    } catch (const InvariantViolation& e) {
      EXPECT_EQ(e.phase(), "final");
      EXPECT_EQ(e.node(), -1);
      EXPECT_NE(std::string(e.what()).find(
                    "final coloring invalid: IMPROPER, complete"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(
      validate_final_coloring(g, corrupt, false, "final", ValidateMode::kOff));
}

TEST(Oracle, PhaseChecksChangeNoColoringOrRound) {
  // The oracle charges no round: under kPhase the composed pipelines give
  // the kOff coloring and ledger phases, on the all-hard and the mixed
  // 65k-node blow-up. This cannot show that det and rand call the oracle
  // at all: nothing plants a wrong coloring inside them, so their call
  // sites and the registry's forwarding of req.validate stay unpinned.
  for (const double easy : {0.0, 0.25}) {
    const CliqueInstance inst = clique_blowup_instance(
        {.num_cliques = 4096, .delta = 16, .clique_size = 16,
         .easy_fraction = easy, .seed = 1});
    for (const char* name : {"det", "rand"}) {
      const AlgorithmEntry* entry = find_algorithm(name);
      ASSERT_NE(entry, nullptr);
      AlgorithmRequest req;
      req.seed = 7;
      const AlgorithmResult off = entry->run(inst.graph, req);
      req.validate = ValidateMode::kPhase;
      const AlgorithmResult phase = entry->run(inst.graph, req);
      ASSERT_TRUE(off.ok && phase.ok) << name << " easy " << easy;
      EXPECT_EQ(phase.color, off.color) << name << " easy " << easy;
      EXPECT_EQ(phase.ledger.phases(), off.ledger.phases())
          << name << " easy " << easy;
    }
  }
}

}  // namespace
}  // namespace deltacolor
