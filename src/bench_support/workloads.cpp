#include "bench_support/workloads.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace deltacolor::bench {

AlgorithmResult run_registered(std::string_view name, const Graph& g,
                               const AlgorithmRequest& req) {
  const AlgorithmEntry* entry = find_algorithm(name);
  DC_CHECK_MSG(entry != nullptr,
               "bench requested unregistered algorithm '" << name << "'");
  return entry->run(g, req);
}

Hypergraph random_hypergraph(int num_vertices, int delta, int rank,
                             std::uint64_t seed) {
  Rng rng(seed);
  Hypergraph h;
  h.num_vertices = num_vertices;
  const int num_edges =
      (num_vertices * delta) / std::max(1, rank / 2) + 1;
  for (int f = 0; f < num_edges; ++f) {
    std::vector<int> members;
    const int size = 1 + static_cast<int>(rng.below(rank));
    for (int i = 0; i < size; ++i)
      members.push_back(static_cast<int>(rng.below(num_vertices)));
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()),
                  members.end());
    h.add_edge(members);
  }
  // Patch deficient vertices with private singleton edges.
  std::vector<int> deg(num_vertices, 0);
  for (int f = 0; f < h.num_edges(); ++f)
    for (const int v : h.edge(f)) ++deg[v];
  for (int v = 0; v < num_vertices; ++v)
    while (deg[v] < delta) {
      h.add_edge({v});
      ++deg[v];
    }
  h.build_incidence();
  return h;
}

}  // namespace deltacolor::bench
