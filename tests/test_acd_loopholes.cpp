// Tests for the almost-clique decomposition (Lemma 2), loophole
// detection (Definition 6 / Definition 8 support), and the hard/easy
// classification with its always-on Lemma 9 checks.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "acd/acd.hpp"
#include "core/hardness.hpp"
#include "core/loopholes.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "local/ledger.hpp"

namespace deltacolor {
namespace {

CliqueInstance blowup(int cliques, int delta, int s, double easy = 0.0,
                      std::uint64_t seed = 3) {
  CliqueInstanceOptions opt;
  opt.num_cliques = cliques;
  opt.delta = delta;
  opt.clique_size = s;
  opt.easy_fraction = easy;
  opt.seed = seed;
  return clique_blowup_instance(opt);
}

AcdParams params_for(int delta) {
  // epsilon * Delta >= 2 keeps degree-(Delta-1) loophole vertices inside
  // their almost clique (Lemma 2 (ii)); the paper's 1/63 assumes Delta
  // large enough, so moderate-Delta instances scale epsilon up.
  AcdParams p;
  p.epsilon = std::max(kAcdEpsilon, 2.5 / delta);
  return p;
}

// --- ACD ----------------------------------------------------------------------

TEST(Acd, RecoversGroundTruthCliques) {
  const CliqueInstance inst = blowup(24, 16, 16);
  RoundLedger ledger;
  const Acd acd = compute_acd(inst.graph, ledger, params_for(16));
  EXPECT_TRUE(acd.is_dense());
  EXPECT_EQ(acd.num_cliques(), static_cast<int>(inst.cliques.size()));
  // Every ground-truth clique must be one AC.
  for (const auto& clique : inst.cliques) {
    const int c = acd.clique_of[clique.front()];
    ASSERT_NE(c, -1);
    for (const NodeId v : clique) EXPECT_EQ(acd.clique_of[v], c);
  }
  EXPECT_TRUE(validate_acd(inst.graph, acd).empty());
}

TEST(Acd, ValidOnLemma2TermsAtPaperEpsilon) {
  // Delta = 63 is the smallest maximum degree at which exact
  // Delta-cliques satisfy Lemma 2 (ii) with the paper's epsilon = 1/63.
  const CliqueInstance inst = blowup(8, 63, 63);
  RoundLedger ledger;
  AcdParams p;  // defaults: epsilon = 1/63
  const Acd acd = compute_acd(inst.graph, ledger, p);
  EXPECT_TRUE(acd.is_dense());
  const auto violations = validate_acd(inst.graph, acd);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST(Acd, EasifiedCliquesStayInDecomposition) {
  const CliqueInstance inst = blowup(20, 16, 16, /*easy=*/0.3);
  RoundLedger ledger;
  const Acd acd = compute_acd(inst.graph, ledger, params_for(16));
  EXPECT_TRUE(acd.is_dense());
  EXPECT_EQ(acd.num_cliques(), static_cast<int>(inst.cliques.size()));
}

TEST(Acd, SparseGraphClassifiedSparse) {
  Graph g = random_regular(128, 6, 9);
  RoundLedger ledger;
  const Acd acd = compute_acd(g, ledger);
  EXPECT_FALSE(acd.is_dense());
  EXPECT_EQ(acd.num_cliques(), 0);
  EXPECT_EQ(acd.sparse.size(), g.num_nodes());
}

TEST(Acd, TreeIsAllSparse) {
  Graph g = random_tree(100, 4);
  RoundLedger ledger;
  const Acd acd = compute_acd(g, ledger);
  EXPECT_FALSE(acd.is_dense());
}

TEST(Acd, EmptyGraph) {
  Graph g(0, {});
  RoundLedger ledger;
  const Acd acd = compute_acd(g, ledger);
  EXPECT_TRUE(acd.is_dense());
  EXPECT_EQ(acd.num_cliques(), 0);
  EXPECT_EQ(ledger.phase_total("acd"), 1);  // the empty graph pays one round
  EXPECT_EQ(ledger.total(), 1);
}

TEST(Acd, ChargesConstantRounds) {
  const CliqueInstance small = blowup(12, 12, 12);
  const CliqueInstance large = blowup(48, 12, 12);
  RoundLedger l1, l2;
  compute_acd(small.graph, l1, params_for(12));
  compute_acd(large.graph, l2, params_for(12));
  EXPECT_EQ(l1.total(), l2.total());  // O(1) rounds, independent of n
}

// --- loophole validity checker ---------------------------------------------------

TEST(Loopholes, ValidityChecker) {
  // Path: middle vertex has deg 2 = Delta, ends have deg 1 < Delta.
  Graph p = path_graph(3);
  EXPECT_TRUE(is_valid_loophole(p, Loophole{{0}}));
  EXPECT_FALSE(is_valid_loophole(p, Loophole{{1}}));

  // C4 is a non-clique 4-cycle.
  Graph c4 = cycle_graph(4);
  EXPECT_TRUE(is_valid_loophole(c4, Loophole{{0, 1, 2, 3}}));
  EXPECT_FALSE(is_valid_loophole(c4, Loophole{{0, 2, 1, 3}}));  // non-cycle
  EXPECT_FALSE(is_valid_loophole(c4, Loophole{{0, 1, 2}}));     // odd

  // K4 contains 4-cycles but they induce cliques: not loopholes.
  Graph k4 = complete_graph(4);
  EXPECT_FALSE(is_valid_loophole(k4, Loophole{{0, 1, 2, 3}}));

  // Duplicated vertices rejected.
  EXPECT_FALSE(is_valid_loophole(c4, Loophole{{0, 1, 0, 1}}));
}

// --- brute-force detector ---------------------------------------------------------

TEST(Loopholes, BruteForceOnEvenCycle) {
  Graph g = cycle_graph(6);  // Delta = 2; the whole 6-cycle is a loophole
  const auto set = find_loopholes_bruteforce(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_TRUE(set.vertex_in_loophole(v));
}

TEST(Loopholes, BruteForceOnOddCycle) {
  Graph g = cycle_graph(7);  // odd cycle: no loophole anywhere
  const auto set = find_loopholes_bruteforce(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_FALSE(set.vertex_in_loophole(v));
  EXPECT_TRUE(set.loopholes.empty());
}

TEST(Loopholes, BruteForceOnCompleteGraph) {
  Graph g = complete_graph(6);  // K6: Delta = 5, no loopholes
  const auto set = find_loopholes_bruteforce(g);
  EXPECT_TRUE(set.loopholes.empty());
}

TEST(Loopholes, BruteForceFindsDegreeLoopholes) {
  Graph g = star_graph(5);  // leaves have degree 1 < Delta = 5
  const auto set = find_loopholes_bruteforce(g);
  for (NodeId v = 1; v <= 5; ++v) EXPECT_TRUE(set.vertex_in_loophole(v));
}

TEST(Loopholes, AllDetectedLoopholesAreValid) {
  Graph g = random_graph(40, 0.2, 12);
  const auto set = find_loopholes_bruteforce(g);
  for (const auto& l : set.loopholes) EXPECT_TRUE(is_valid_loophole(g, l));
}

// --- dense detector vs ground truth -----------------------------------------------

TEST(Loopholes, DenseDetectorFindsNothingOnHardInstance) {
  const CliqueInstance inst = blowup(24, 16, 16);
  RoundLedger ledger;
  const Acd acd = compute_acd(inst.graph, ledger, params_for(16));
  const auto set = find_loopholes_dense(inst.graph, acd, ledger);
  EXPECT_TRUE(set.loopholes.empty())
      << "hard instance must have no <=6-vertex loopholes";
}

TEST(Loopholes, DenseDetectorFlagsEasifiedCliques) {
  const CliqueInstance inst = blowup(20, 16, 16, /*easy=*/0.4, 8);
  RoundLedger ledger;
  const Acd acd = compute_acd(inst.graph, ledger, params_for(16));
  const auto set = find_loopholes_dense(inst.graph, acd, ledger);
  for (std::size_t c = 0; c < inst.cliques.size(); ++c) {
    bool has_loophole_vertex = false;
    for (const NodeId v : inst.cliques[c])
      if (set.vertex_in_loophole(v)) has_loophole_vertex = true;
    EXPECT_EQ(has_loophole_vertex, static_cast<bool>(inst.easified[c]))
        << "clique " << c;
  }
  for (const auto& l : set.loopholes)
    EXPECT_TRUE(is_valid_loophole(inst.graph, l));
}

TEST(Loopholes, DenseAgreesWithBruteForceOnSmallInstances) {
  // The dense detector records *witness* loopholes (one per structural
  // cause), so the correct agreement granularity is: (1) every dense-flagged
  // vertex is brute-flagged, and (2) per almost clique, "intersects some
  // loophole" coincides — that is what hard/easy classification consumes.
  for (const double easy : {0.0, 0.25, 0.5}) {
    const CliqueInstance inst = blowup(10, 10, 10, easy, 21);
    RoundLedger ledger;
    const Acd acd = compute_acd(inst.graph, ledger, params_for(10));
    ASSERT_TRUE(acd.is_dense()) << "easy_fraction " << easy;
    const auto dense = find_loopholes_dense(inst.graph, acd, ledger);
    const auto brute = find_loopholes_bruteforce(inst.graph);
    for (NodeId v = 0; v < inst.graph.num_nodes(); ++v)
      EXPECT_LE(dense.vertex_in_loophole(v), brute.vertex_in_loophole(v))
          << "vertex " << v << " easy_fraction " << easy;
    for (int c = 0; c < acd.num_cliques(); ++c) {
      bool dense_hit = false, brute_hit = false;
      for (const NodeId v : acd.cliques[static_cast<std::size_t>(c)]) {
        dense_hit |= dense.vertex_in_loophole(v);
        brute_hit |= brute.vertex_in_loophole(v);
      }
      EXPECT_EQ(dense_hit, brute_hit)
          << "AC " << c << " easy_fraction " << easy;
    }
  }
}

TEST(Loopholes, CliqueRingIsEasyEverywhere) {
  const CliqueInstance inst = clique_ring(8, 6);
  RoundLedger ledger;
  const Acd acd = compute_acd(inst.graph, ledger, params_for(6));
  const auto set = find_loopholes_dense(inst.graph, acd, ledger);
  // Each clique has s-2 vertices of degree < Delta: all flagged.
  int flagged = 0;
  for (NodeId v = 0; v < inst.graph.num_nodes(); ++v)
    if (set.vertex_in_loophole(v)) ++flagged;
  EXPECT_GE(flagged, 8 * (6 - 2));
}

// --- hard/easy classification (Definition 8) and Lemma 9 --------------------------
//
// Hand-built instances around the 4-clique {0, 1, 2, 3} at Delta = 4, with
// a hand-built ACD whose one almost clique is those four vertices. With no
// loophole reported the clique is hard, so every Lemma 9 violation below
// is a loophole the detector would have missed, and classify_hardness must
// throw rather than let the hard-clique coloring run on it.

std::vector<std::pair<NodeId, NodeId>> k4_plus(
    std::vector<std::pair<NodeId, NodeId>> extra) {
  std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {0, 2}, {0, 3},
                                                  {1, 2}, {1, 3}, {2, 3}};
  edges.insert(edges.end(), extra.begin(), extra.end());
  return edges;
}

Acd clique_0123_acd(const Graph& g) {
  Acd acd;
  acd.clique_of.assign(g.num_nodes(), -1);
  acd.cliques.push_back({0, 1, 2, 3});
  for (const NodeId v : acd.cliques[0]) acd.clique_of[v] = 0;
  for (NodeId v = 4; v < g.num_nodes(); ++v) acd.sparse.push_back(v);
  return acd;
}

LoopholeSet no_loopholes(const Graph& g) {
  LoopholeSet set;
  set.vote_of.assign(g.num_nodes(), -1);
  return set;
}

void expect_lemma9_violation(const Graph& g, const std::string& what) {
  try {
    classify_hardness(g, clique_0123_acd(g), no_loopholes(g));
    ADD_FAILURE() << "no Lemma 9 violation reported, expected '" << what
                  << "'";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(Hardness, WellFormedHardCliquePassesLemma9) {
  // Each member has one external neighbor of its own: degree Delta = 4.
  const Graph g(8, k4_plus({{0, 4}, {1, 5}, {2, 6}, {3, 7}}));
  const Hardness h = classify_hardness(g, clique_0123_acd(g), no_loopholes(g));
  EXPECT_EQ(h.num_hard, 1);
  EXPECT_EQ(h.num_easy, 0);
  ASSERT_EQ(h.is_hard.size(), 1u);
  EXPECT_TRUE(h.is_hard[0]);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(h.in_hard[v], v < 4) << "node " << v;
}

TEST(Hardness, RejectsHardCliqueMemberBelowMaxDegree) {
  // Member 3 has no external neighbor: degree 3 < Delta (Lemma 9.2).
  const Graph g(7, k4_plus({{0, 4}, {1, 5}, {2, 6}}));
  expect_lemma9_violation(g, "hard clique member 3 has degree 3 != 4");
}

TEST(Hardness, DetectedLoopholeMakesItsCliqueEasy) {
  // The same degree-3 member, now reported as a degree loophole: the
  // clique is easy, and Lemma 9 holds only for hard cliques.
  const Graph g(7, k4_plus({{0, 4}, {1, 5}, {2, 6}}));
  LoopholeSet set = no_loopholes(g);
  set.add(g, Loophole{{3}});
  const Hardness h = classify_hardness(g, clique_0123_acd(g), set);
  EXPECT_EQ(h.num_hard, 0);
  EXPECT_EQ(h.num_easy, 1);
  EXPECT_FALSE(h.is_hard[0]);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_FALSE(h.in_hard[v]) << "node " << v;
}

TEST(Hardness, RejectsHardCliqueMissingAnEdge) {
  // {0, 1, 2, 3} without the edge 0-1; members 0 and 1 make up the lost
  // degree outside, so every member still has degree Delta (Lemma 9.1).
  const Graph g(10, {{0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {0, 4},
                     {0, 5}, {1, 6}, {1, 7}, {2, 8}, {3, 9}});
  expect_lemma9_violation(g, "hard AC 0 is not a clique at member 0");
}

TEST(Hardness, RejectsOutsiderWithTwoNeighborsInHardClique) {
  // Outsider 4 is adjacent to members 0 and 1 (Lemma 9.3).
  const Graph g(7, k4_plus({{0, 4}, {1, 4}, {2, 5}, {3, 6}}));
  expect_lemma9_violation(
      g, "outsider 4 has two neighbors in hard clique 0");
}

}  // namespace
}  // namespace deltacolor
