// Shared workload builders for the experiment benches, plus the bench-side
// entry into the algorithm registry (benches and the dcolor CLI resolve
// algorithms from the same catalog).
#pragma once

#include <cstdint>
#include <string_view>

#include "graph/generators.hpp"
#include "primitives/hypergraph.hpp"
#include "registry/registry.hpp"

namespace deltacolor::bench {

/// Resolves `name` from the shared algorithm registry and runs it under
/// the request's seed / engine options. Throws on unknown names (benches
/// hardcode registered names; a typo should abort loudly).
AlgorithmResult run_registered(std::string_view name, const Graph& g,
                               const AlgorithmRequest& req = {});

/// Hard dense instance: t cliques of size delta, vertex degree exactly
/// delta, no loopholes anywhere.
inline CliqueInstance hard_instance(int cliques, int delta,
                                    std::uint64_t seed) {
  CliqueInstanceOptions opt;
  opt.num_cliques = cliques;
  opt.delta = delta;
  opt.clique_size = delta;
  opt.seed = seed;
  return clique_blowup_instance(opt);
}

/// Mixed instance with a fraction of easy cliques.
inline CliqueInstance mixed_instance(int cliques, int delta, double easy,
                                     std::uint64_t seed) {
  CliqueInstanceOptions opt;
  opt.num_cliques = cliques;
  opt.delta = delta;
  opt.clique_size = delta;
  opt.easy_fraction = easy;
  opt.seed = seed;
  return clique_blowup_instance(opt);
}

/// Random multihypergraph with min degree >= `delta` and rank <= `rank`
/// (the Lemma 5 workload for bench E8).
Hypergraph random_hypergraph(int num_vertices, int delta, int rank,
                             std::uint64_t seed);

}  // namespace deltacolor::bench
