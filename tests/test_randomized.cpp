// End-to-end tests for the randomized Delta-coloring algorithm
// (Theorem 2 / Algorithm 4): validity across instance families and seeds,
// shattering behavior, the reserved-color mechanics, and T-node placement
// against a transcribed reference loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <queue>

#include "acd/acd.hpp"
#include "common/rng.hpp"
#include "core/hardness.hpp"
#include "core/loopholes.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "randomized/randomized_coloring.hpp"
#include "randomized/tnode_placement.hpp"

namespace deltacolor {
namespace {

CliqueInstance blowup(int cliques, int delta, int s, double easy,
                      std::uint64_t seed) {
  CliqueInstanceOptions opt;
  opt.num_cliques = cliques;
  opt.delta = delta;
  opt.clique_size = s;
  opt.easy_fraction = easy;
  opt.seed = seed;
  return clique_blowup_instance(opt);
}

struct RCase {
  int cliques, delta;
  double easy;
  std::uint64_t graph_seed, algo_seed;
};

class RandomizedEndToEnd : public ::testing::TestWithParam<RCase> {};

TEST_P(RandomizedEndToEnd, ProducesValidDeltaColoring) {
  const RCase c = GetParam();
  const CliqueInstance inst =
      blowup(c.cliques, c.delta, c.delta, c.easy, c.graph_seed);
  const auto res = randomized_delta_color(
      inst.graph, scaled_randomized_options(c.delta, c.algo_seed));
  EXPECT_TRUE(res.dense);
  EXPECT_TRUE(res.valid);
  EXPECT_TRUE(is_delta_coloring(inst.graph, res.color));
  EXPECT_EQ(res.stats.tnodes_placed + res.stats.failed_cliques,
            res.stats.num_hard);
}

INSTANTIATE_TEST_SUITE_P(
    DenseInstances, RandomizedEndToEnd,
    ::testing::Values(RCase{16, 16, 0.0, 1, 10}, RCase{16, 16, 0.0, 1, 11},
                      RCase{16, 16, 0.0, 2, 12}, RCase{24, 12, 0.0, 3, 13},
                      RCase{16, 16, 0.3, 4, 14}, RCase{16, 16, 1.0, 5, 15},
                      RCase{32, 16, 0.1, 6, 16}, RCase{12, 32, 0.0, 7, 17}));

TEST(Randomized, ShatteringLeavesOnlySmallComponents) {
  const CliqueInstance inst = blowup(48, 16, 16, 0.0, 21);
  const auto res =
      randomized_delta_color(inst.graph, scaled_randomized_options(16, 5));
  ASSERT_TRUE(res.valid);
  // A clique whose members host another T-node's pair vertex legitimately
  // fails to place its own (all its members neighbor a color-0 vertex),
  // but the coverage layers around nearby slack vertices absorb it: the
  // uncovered remainder must be a small fraction of the graph.
  EXPECT_GT(res.stats.tnodes_placed, res.stats.num_hard / 4);
  EXPECT_LT(res.stats.max_component_vertices,
            static_cast<int>(inst.graph.num_nodes()) / 4 + 1);
}

TEST(Randomized, PairColorIsReservedColorZero) {
  const CliqueInstance inst = blowup(24, 16, 16, 0.0, 31);
  const auto res =
      randomized_delta_color(inst.graph, scaled_randomized_options(16, 7));
  ASSERT_TRUE(res.valid);
  // Count color-0 vertices: at least two per placed T-node.
  int zero = 0;
  for (const Color c : res.color) zero += c == 0 ? 1 : 0;
  EXPECT_GE(zero, 2 * res.stats.tnodes_placed);
}

TEST(Randomized, DifferentSeedsDifferentColoringsBothValid) {
  const CliqueInstance inst = blowup(16, 16, 16, 0.2, 41);
  const auto r1 =
      randomized_delta_color(inst.graph, scaled_randomized_options(16, 1));
  const auto r2 =
      randomized_delta_color(inst.graph, scaled_randomized_options(16, 2));
  ASSERT_TRUE(r1.valid && r2.valid);
  EXPECT_NE(r1.color, r2.color);  // overwhelmingly likely
}

TEST(Randomized, SparseGraphRejected) {
  Graph g = random_regular(64, 6, 3);
  EXPECT_THROW(randomized_delta_color(g), std::logic_error);
}

TEST(Randomized, RoundsSublinearInN) {
  const CliqueInstance small = blowup(16, 16, 16, 0.0, 51);
  const CliqueInstance large = blowup(64, 16, 16, 0.0, 51);
  const auto rs =
      randomized_delta_color(small.graph, scaled_randomized_options(16, 3));
  const auto rl =
      randomized_delta_color(large.graph, scaled_randomized_options(16, 3));
  ASSERT_TRUE(rs.valid && rl.valid);
  EXPECT_LT(rl.ledger.total(), 3 * rs.ledger.total());
}

TEST(Randomized, PaperExactParametersAtDelta63) {
  // Full Algorithm 4 at the paper's epsilon = 1/63 (no scaling), the
  // smallest Delta the constants admit.
  const CliqueInstance inst = blowup(8, 63, 63, 0.0, 2);
  RandomizedOptions opt;  // defaults: epsilon = 1/63
  opt.seed = 5;
  const auto res = randomized_delta_color(inst.graph, opt);
  EXPECT_TRUE(res.dense);
  EXPECT_TRUE(res.valid);
  EXPECT_GT(res.stats.tnodes_placed, 0);
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ULL;
}

/// Order-sensitive hash of a randomized run: the coloring, the total round
/// charge and the number of placed T-nodes.
std::uint64_t result_hash(const RandomizedResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Color c : r.color) h = fnv(h, static_cast<std::uint64_t>(c) + 1);
  h = fnv(h, static_cast<std::uint64_t>(r.ledger.total()));
  h = fnv(h, static_cast<std::uint64_t>(r.stats.tnodes_placed));
  return h;
}

TEST(RandomizedGolden, MixedInstanceHashIsPinned) {
  // 30% easy cliques: T-node placement skips loophole members and the
  // easy phase colors real work. Regenerate only for a deliberate
  // semantic change.
  const CliqueInstance inst = blowup(32, 16, 16, 0.3, 9);
  const auto res =
      randomized_delta_color(inst.graph, scaled_randomized_options(16, 7));
  ASSERT_TRUE(res.valid);
  EXPECT_EQ(res.ledger.total(), 434);
  EXPECT_EQ(res.stats.tnodes_placed, 16);
  EXPECT_EQ(result_hash(res), 0x1fd52e93e6be9608ULL);
}

TEST(RandomizedGolden, Delta63InstanceHashIsPinned) {
  // Paper-exact epsilon at Delta = 63: 63-member cliques fill a 64-bit
  // clique mask but one slot.
  const CliqueInstance inst = blowup(8, 63, 63, 0.0, 2);
  RandomizedOptions opt;
  opt.seed = 5;
  const auto res = randomized_delta_color(inst.graph, opt);
  ASSERT_TRUE(res.valid);
  EXPECT_EQ(res.ledger.total(), 1249);
  EXPECT_EQ(res.stats.tnodes_placed, 63);
  EXPECT_EQ(result_hash(res), 0x86f2e97caa78ceb9ULL);
}

// ---------------------------------------------------------------------------
// T-node placement: differential test against the original loop.

/// The pre-shattering loop as randomized_delta_color ran it before the
/// clique-local kernel, transcribed verbatim except for the ball marking,
/// which here is a BFS with its own visited set (the original stopped at
/// vertices an earlier ball had marked, so radius >= 2 balls came out too
/// small).
TnodePlacement reference_place_tnodes(const Graph& g, const Acd& acd,
                                      const LoopholeSet& loopholes,
                                      const std::vector<int>& hard_acs,
                                      int rounds, int spacing,
                                      std::uint64_t seed, Rng& rng,
                                      std::vector<Color>& color) {
  const auto mark_ball = [&](NodeId v, int radius, NodeMask& mark) {
    std::vector<int> dist(g.num_nodes(), -1);
    std::queue<NodeId> q;
    dist[v] = 0;
    mark[v] = 1;
    q.push(v);
    while (!q.empty()) {
      const NodeId x = q.front();
      q.pop();
      if (dist[x] == radius) continue;
      for (const NodeId y : g.neighbors(x)) {
        if (dist[y] != -1) continue;
        dist[y] = dist[x] + 1;
        mark[y] = 1;
        q.push(y);
      }
    }
  };
  TnodePlacement out;
  out.triad_of_clique.resize(acd.cliques.size());
  out.placed.assign(acd.cliques.size(), 0);
  out.slack_used.assign(g.num_nodes(), 0);
  out.pair_blocked.assign(g.num_nodes(), 0);
  NodeMask& placed = out.placed;
  NodeMask& slack_used = out.slack_used;
  NodeMask& pair_blocked = out.pair_blocked;
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::pair<std::uint64_t, int>> order;
    for (const int c : hard_acs)
      if (!placed[static_cast<std::size_t>(c)])
        order.emplace_back(hash_mix(seed, c, round), c);
    std::sort(order.begin(), order.end());
    for (const auto& [prio, c] : order) {
      const auto& members = acd.cliques[static_cast<std::size_t>(c)];
      for (int attempt = 0; attempt < 20; ++attempt) {
        const NodeId u = members[rng.below(members.size())];
        if (slack_used[u] || color[u] != kNoColor) continue;
        std::vector<NodeId> ext;
        for (const NodeId x : g.neighbors(u))
          if (acd.clique_of[x] != c && !pair_blocked[x] && !slack_used[x] &&
              color[x] == kNoColor && !loopholes.vertex_in_loophole(x))
            ext.push_back(x);
        if (ext.empty()) continue;
        const NodeId w = ext[rng.below(ext.size())];
        std::vector<NodeId> inner;
        for (const NodeId x : members)
          if (x != u && !pair_blocked[x] && !slack_used[x] &&
              color[x] == kNoColor && g.has_edge(u, x) && !g.has_edge(x, w))
            inner.push_back(x);
        if (inner.empty()) continue;
        const NodeId v = inner[rng.below(inner.size())];
        bool clash = false;
        for (const NodeId x : {v, w})
          for (const NodeId y : g.neighbors(x))
            if (color[y] == kTnodeColor) clash = true;
        if (clash) continue;
        color[v] = kTnodeColor;
        color[w] = kTnodeColor;
        out.triad_of_clique[static_cast<std::size_t>(c)] = TnodeTriad{u, v, w};
        placed[static_cast<std::size_t>(c)] = 1;
        slack_used[u] = 1;
        mark_ball(v, spacing, pair_blocked);
        mark_ball(w, spacing, pair_blocked);
        break;
      }
    }
  }
  return out;
}

struct PlacementInput {
  Graph graph;
  Acd acd;
  LoopholeSet loopholes;
  std::vector<int> hard_acs;
  std::vector<Color> color;
};

/// Runs the kernel and the reference from identical inputs and RNG state;
/// returns the number of placed T-nodes.
int expect_placement_matches_reference(const PlacementInput& in, int spacing,
                                       std::uint64_t seed,
                                       const std::string& tag) {
  Rng rng_ref(seed), rng_new(seed);
  std::vector<Color> color_ref = in.color, color_new = in.color;
  const TnodePlacement ref =
      reference_place_tnodes(in.graph, in.acd, in.loopholes, in.hard_acs, 6,
                             spacing, seed, rng_ref, color_ref);
  const TnodePlacement got =
      place_tnodes(in.graph, in.acd, in.loopholes, in.hard_acs, 6, spacing,
                   seed, rng_new, color_new);
  EXPECT_EQ(got.placed, ref.placed) << tag;
  EXPECT_EQ(got.slack_used, ref.slack_used) << tag;
  EXPECT_EQ(got.pair_blocked, ref.pair_blocked) << tag;
  EXPECT_EQ(color_new, color_ref) << tag;
  EXPECT_EQ(rng_new(), rng_ref()) << tag << ": RNG streams diverged";
  int placed = 0;
  for (std::size_t c = 0; c < ref.placed.size(); ++c) {
    if (!ref.placed[c]) continue;
    ++placed;
    const TnodeTriad& a = got.triad_of_clique[c];
    const TnodeTriad& b = ref.triad_of_clique[c];
    EXPECT_TRUE(a.slack == b.slack && a.pair_in == b.pair_in &&
                a.pair_out == b.pair_out)
        << tag << " clique " << c;
  }
  return placed;
}

PlacementInput blowup_placement_input(int cliques, int delta, double easy,
                                      std::uint64_t seed) {
  PlacementInput in;
  in.graph = blowup(cliques, delta, delta, easy, seed).graph;
  const RandomizedOptions opt = scaled_randomized_options(delta);
  RoundLedger ledger;
  in.acd = compute_acd(in.graph, ledger, opt.acd);
  in.loopholes = find_loopholes_dense(in.graph, in.acd, ledger);
  const Hardness hardness = classify_hardness(in.graph, in.acd, in.loopholes);
  for (std::size_t c = 0; c < in.acd.cliques.size(); ++c)
    if (hardness.is_hard[c]) in.hard_acs.push_back(static_cast<int>(c));
  in.color.assign(in.graph.num_nodes(), kNoColor);
  return in;
}

TEST(TnodePlacement, MatchesReferenceOnBlowups) {
  int placed = 0;
  for (const int delta : {12, 16, 32, 63}) {
    for (const double easy : {0.0, 0.3}) {
      const PlacementInput in =
          blowup_placement_input(delta >= 63 ? 8 : 24, delta, easy, 3);
      for (int spacing = 0; spacing <= 3; ++spacing) {
        placed += expect_placement_matches_reference(
            in, spacing, 100 + spacing,
            "delta=" + std::to_string(delta) +
                " easy=" + std::to_string(easy) +
                " spacing=" + std::to_string(spacing));
      }
    }
  }
  EXPECT_GT(placed, 0);
}

/// Inputs no generator produces: G(n, p) split into arbitrary "cliques" of
/// 3-70 members (some nodes in none), random loophole votes, some nodes
/// pre-colored (a few with the T-node color), and a random subset of the
/// cliques marked hard, listed in shuffled order.
PlacementInput adversarial_placement_input(std::uint64_t seed) {
  Rng rng(seed);
  PlacementInput in;
  const NodeId n = 360;
  in.graph = random_graph(n, 0.08 + 0.04 * static_cast<double>(seed % 4),
                          seed);
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  in.acd.clique_of.assign(n, -1);
  std::size_t next = 0;
  while (next < n * 9 / 10) {
    const std::size_t size =
        std::min<std::size_t>(3 + rng.below(68), n - next);
    const int c = static_cast<int>(in.acd.cliques.size());
    in.acd.cliques.emplace_back(perm.begin() + static_cast<long>(next),
                                perm.begin() + static_cast<long>(next + size));
    for (const NodeId v : in.acd.cliques.back()) in.acd.clique_of[v] = c;
    next += size;
  }
  in.loopholes.vote_of.assign(n, -1);
  for (NodeId v = 0; v < n; ++v)
    if (rng.chance(0.1)) in.loopholes.vote_of[v] = 0;
  in.color.assign(n, kNoColor);
  for (NodeId v = 0; v < n; ++v)
    if (rng.chance(0.03)) in.color[v] = static_cast<Color>(rng.below(3));
  for (std::size_t c = 0; c < in.acd.cliques.size(); ++c)
    if (rng.chance(0.8)) in.hard_acs.push_back(static_cast<int>(c));
  std::shuffle(in.hard_acs.begin(), in.hard_acs.end(), rng);
  return in;
}

TEST(TnodePlacement, MatchesReferenceOnAdversarialPartitions) {
  int placed = 0;
  bool wide_clique = false, multi_touch = false, multi_external = false;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const PlacementInput in = adversarial_placement_input(seed);
    // The paths blow-ups never reach: cliques past one mask word, members
    // with several external neighbors, externals touching several members.
    for (const int c : in.hard_acs) {
      const auto& members = in.acd.cliques[static_cast<std::size_t>(c)];
      wide_clique |= members.size() > 64;
      std::vector<int> touches(in.graph.num_nodes(), 0);
      for (const NodeId m : members) {
        int external = 0;
        for (const NodeId x : in.graph.neighbors(m)) {
          if (in.acd.clique_of[x] == c) continue;
          ++external;
          multi_touch |= ++touches[x] >= 2;
        }
        multi_external |= external >= 2;
      }
    }
    for (int spacing = 0; spacing <= 2; ++spacing)
      placed += expect_placement_matches_reference(
          in, spacing, seed * 7 + spacing,
          "seed=" + std::to_string(seed) +
              " spacing=" + std::to_string(spacing));
  }
  EXPECT_TRUE(wide_clique);
  EXPECT_TRUE(multi_touch);
  EXPECT_TRUE(multi_external);
  EXPECT_GT(placed, 0);
}

TEST(TnodePlacement, PairsOfDifferentTnodesKeepSpacingThree) {
  // Regression for the ball under-marking: with b = 3, no two pair
  // vertices of different T-nodes may lie within distance 3 (the old
  // marking left dozens of such pairs on these instances).
  constexpr int kSpacing = 3;
  for (const std::uint64_t seed : {1, 2, 3}) {
    const PlacementInput in = blowup_placement_input(256, 16, 0.0, seed);
    std::vector<Color> color = in.color;
    Rng rng(seed);
    const TnodePlacement p =
        place_tnodes(in.graph, in.acd, in.loopholes, in.hard_acs, 6,
                     kSpacing, seed, rng, color);
    std::vector<int> owner(in.graph.num_nodes(), -1);
    std::vector<NodeId> pairs;
    for (std::size_t c = 0; c < p.placed.size(); ++c) {
      if (!p.placed[c]) continue;
      for (const NodeId x :
           {p.triad_of_clique[c].pair_in, p.triad_of_clique[c].pair_out}) {
        owner[x] = static_cast<int>(c);
        pairs.push_back(x);
      }
    }
    ASSERT_GE(pairs.size(), 10u) << "seed " << seed;
    int close = 0;
    for (const NodeId s : pairs) {
      std::vector<int> dist(in.graph.num_nodes(), -1);
      std::queue<NodeId> q;
      dist[s] = 0;
      q.push(s);
      while (!q.empty()) {
        const NodeId x = q.front();
        q.pop();
        if (owner[x] != -1 && owner[x] != owner[s]) ++close;
        if (dist[x] == kSpacing) continue;
        for (const NodeId y : in.graph.neighbors(x)) {
          if (dist[y] != -1) continue;
          dist[y] = dist[x] + 1;
          q.push(y);
        }
      }
    }
    EXPECT_EQ(close, 0) << "seed " << seed;
  }
}

TEST(Randomized, Fhm23GuardNeverFiresAtSimulationScale) {
  const CliqueInstance inst = blowup(12, 16, 16, 0.0, 61);
  const auto res =
      randomized_delta_color(inst.graph, scaled_randomized_options(16, 9));
  EXPECT_FALSE(res.stats.fhm23_branch);
}

}  // namespace
}  // namespace deltacolor
