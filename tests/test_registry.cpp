// Tests for the shared algorithm registry: lookup, the did-you-mean
// suggestions dcolor prints for unknown names, and the run contract the
// CLI and the benches both rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_support/workloads.hpp"
#include "common/errors.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "registry/registry.hpp"

namespace deltacolor {
namespace {

TEST(Registry, FindsEveryRegisteredName) {
  for (const AlgorithmEntry& e : algorithm_registry()) {
    const AlgorithmEntry* found = find_algorithm(e.name);
    ASSERT_NE(found, nullptr) << e.name;
    EXPECT_EQ(found->name, e.name);
    EXPECT_FALSE(found->description.empty()) << e.name;
  }
}

TEST(Registry, UnknownNamesReturnNull) {
  EXPECT_EQ(find_algorithm("no-such-algorithm"), nullptr);
  EXPECT_EQ(find_algorithm(""), nullptr);
  EXPECT_EQ(find_algorithm("DET"), nullptr);  // lookups are case-sensitive
}

TEST(Registry, SuggestsCloseNamesForTypos) {
  const auto det = suggest_algorithms("detr");
  ASSERT_FALSE(det.empty());
  EXPECT_EQ(det.front(), "det");

  const auto matching = suggest_algorithms("matchng");
  ASSERT_FALSE(matching.empty());
  EXPECT_EQ(matching.front(), "matching");

  const auto mis = suggest_algorithms("mis-dt");
  ASSERT_FALSE(mis.empty());
  EXPECT_EQ(mis.front(), "mis-det");
}

TEST(Registry, DoesNotSuggestForGibberish) {
  EXPECT_TRUE(suggest_algorithms("qqqqqqqqqqqqqqqq").empty());
}

TEST(Registry, SuggestionsRespectMaxResults) {
  EXPECT_LE(suggest_algorithms("m", 2).size(), 2u);
}

TEST(Registry, RunProducesValidatedResults) {
  const Graph g = bench::hard_instance(16, 8, 9).graph;
  for (const AlgorithmEntry& e : algorithm_registry()) {
    AlgorithmRequest req;
    req.seed = 11;
    const AlgorithmResult res = e.run(g, req);
    EXPECT_TRUE(res.ok) << e.name;
    EXPECT_FALSE(res.summary.empty()) << e.name;
    // Every entry yields a coloring or a set; never neither.
    EXPECT_TRUE(!res.color.empty() || !res.in_set.empty()) << e.name;
    if (!res.color.empty() && res.palette > 0) {
      EXPECT_TRUE(is_proper_coloring(g, res.color, res.palette)) << e.name;
    }
  }
}

TEST(Registry, BenchHelperResolvesByName) {
  const Graph g = bench::hard_instance(8, 6, 2).graph;
  const AlgorithmResult res = bench::run_registered("greedy", g);
  EXPECT_TRUE(res.ok);
  EXPECT_GT(res.ledger.total(), 0);
}

// The reason `entry` raises on g, or nullopt when it raises none.
std::optional<DomainError::Reason> domain_reason(std::string_view entry,
                                                 const Graph& g) {
  try {
    bench::run_registered(entry, g);
  } catch (const DomainError& e) {
    return e.reason();
  }
  return std::nullopt;
}

// Well-formed inputs outside the pipelines' domain: det and rand raise a
// DomainError naming the reason before they color anything, and brooks
// raises one on a Brooks exception (dcolor exits 5 on all of them).
TEST(Registry, OutOfDomainInputsRaiseDomainError) {
  using Reason = DomainError::Reason;
  // Dense everywhere at Delta = 16, the K_17 included.
  const Graph blowup = bench::hard_instance(64, 16, 1).graph;
  std::vector<std::pair<NodeId, NodeId>> edges(blowup.edges().begin(),
                                               blowup.edges().end());
  const NodeId n = blowup.num_nodes();
  for (NodeId u = 0; u < 17; ++u)
    for (NodeId v = u + 1; v < 17; ++v) edges.emplace_back(n + u, n + v);
  const Graph blowup_k17(n + 17, std::move(edges));
  // 3-regular with girth 5: no vertex has a dense neighborhood.
  const Graph petersen(10, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4},
                            {0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9},
                            {5, 7}, {7, 9}, {6, 9}, {6, 8}, {5, 8}});
  const struct {
    const char* name;
    Graph g;
    Reason reason;
  } cases[] = {
      {"K5", complete_graph(5), Reason::kCliqueComponent},
      {"blowup+K17", blowup_k17, Reason::kCliqueComponent},
      {"path(4)", path_graph(4), Reason::kLowDegree},
      {"Petersen", petersen, Reason::kNotDense},
  };
  for (const auto& c : cases) {
    for (const char* entry : {"det", "rand"})
      EXPECT_EQ(domain_reason(entry, c.g), c.reason) << entry << " " << c.name;
  }
  EXPECT_EQ(domain_reason("brooks", complete_graph(5)),
            Reason::kBrooksException);
  EXPECT_EQ(domain_reason("brooks", cycle_graph(7)),
            Reason::kBrooksException);
  EXPECT_EQ(domain_reason("det", blowup), std::nullopt);
  EXPECT_EQ(domain_reason("brooks", petersen), std::nullopt);
}

}  // namespace
}  // namespace deltacolor
