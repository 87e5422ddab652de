// Tests for the SyncRunner message-passing algorithms (Luby's MIS and
// color trials) and the engine's double-buffer discipline.
#include <gtest/gtest.h>

#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "local/message_passing.hpp"
#include "local/sync_runner.hpp"

namespace deltacolor {
namespace {

std::vector<Graph> family() {
  std::vector<Graph> gs;
  gs.push_back(path_graph(30));
  gs.push_back(cycle_graph(31));
  gs.push_back(complete_graph(8));
  gs.push_back(torus_grid(6, 6));
  gs.push_back(random_regular(100, 5, 3));
  gs.push_back(random_graph(80, 0.08, 4));
  return gs;
}

TEST(MessagePassing, MisIsMaximalIndependent) {
  for (const Graph& g : family()) {
    RoundLedger ledger;
    const auto set = mis_message_passing(g, 55, ledger);
    EXPECT_TRUE(is_maximal_independent_set(g, set))
        << "n=" << g.num_nodes();
    EXPECT_GT(ledger.total(), 0);
  }
}

TEST(MessagePassing, ColorTrialProper) {
  for (const Graph& g : family()) {
    RoundLedger ledger;
    const auto color = color_trial_message_passing(g, 77, ledger);
    EXPECT_TRUE(is_proper_coloring(g, color, g.max_degree() + 1))
        << "n=" << g.num_nodes();
  }
}

TEST(MessagePassing, RoundsLogarithmicShape) {
  RoundLedger small_ledger, big_ledger;
  mis_message_passing(random_regular(128, 4, 1), 3, small_ledger);
  mis_message_passing(random_regular(8192, 4, 2), 3, big_ledger);
  EXPECT_LE(big_ledger.total(),
            8 * std::max<std::int64_t>(1, small_ledger.total()));
}

TEST(SyncRunnerEngine, NeighborViewSeesPreviousRoundOnly) {
  // Propagate a token along a path: after r rounds it has moved exactly r
  // hops — the signature of strict round synchrony.
  Graph g = path_graph(10);
  struct S {
    int token = 0;
  };
  std::vector<S> init(10);
  init[0].token = 1;
  SyncRunner<S> runner(g, init);
  const int rounds =
      runner.run_rounds(3, [&](const SyncRunner<S>::View& view) {
        S s = view.self();
        for (const NodeId u : view.neighbors())
          if (view.neighbor(u).token > 0) s.token = 1;
        return s;
      });
  EXPECT_EQ(rounds, 3);
  for (NodeId v = 0; v < 10; ++v)
    EXPECT_EQ(runner.states()[v].token, v <= 3 ? 1 : 0) << "node " << v;
}

TEST(SyncRunnerEngine, HaltsOnDonePredicate) {
  Graph g = cycle_graph(6);
  struct S {
    int x = 0;
  };
  SyncRunner<S> runner(g, std::vector<S>(6));
  const int rounds = runner.run_until(
      100,
      [](const SyncRunner<S>::View& view) {
        S s = view.self();
        ++s.x;
        return s;
      },
      [](NodeId, const S& s) { return s.x >= 5; });
  EXPECT_EQ(rounds, 5);
}

}  // namespace
}  // namespace deltacolor
