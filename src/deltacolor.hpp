// Umbrella header: the public API of the deltacolor library.
//
// deltacolor is a LOCAL-model implementation of
//   "Towards Optimal Distributed Delta Coloring" (Jakob & Maus, PODC 2025):
// a deterministic min{O~(log^{5/3} n), O(Delta + log n)}-round and a
// randomized min{O~(log^{5/3} log n), O(Delta + log log n)}-round
// Delta-coloring algorithm for dense graphs, together with every substrate
// they rely on (ACD, loophole detection, maximal matching, hyperedge
// grabbing, degree splitting, deg+1-list coloring, ruling sets) and
// baselines (centralized Brooks, distributed greedy Delta+1, layered
// loophole coloring).
//
// Entry points:
//   delta_color_dense()        — Theorem 1 (deterministic)
//   randomized_delta_color()   — Theorem 2 (randomized)
//   brooks_coloring()          — centralized ground truth
#pragma once

#include "acd/acd.hpp"
#include "baselines/baselines.hpp"
#include "baselines/brooks.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/delta_coloring.hpp"
#include "core/easy_coloring.hpp"
#include "core/hard_coloring.hpp"
#include "core/hardness.hpp"
#include "core/loopholes.hpp"
#include "graph/checker.hpp"
#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/subgraph.hpp"
#include "common/thread_pool.hpp"
#include "local/context.hpp"
#include "local/ledger.hpp"
#include "local/message_passing.hpp"
#include "local/sync_runner.hpp"
#include "primitives/color_reduction.hpp"
#include "primitives/degree_splitting.hpp"
#include "primitives/forest_coloring.hpp"
#include "primitives/heg.hpp"
#include "primitives/linial.hpp"
#include "primitives/list_coloring.hpp"
#include "primitives/maximal_matching.hpp"
#include "primitives/mis.hpp"
#include "primitives/ruling_set.hpp"
#include "randomized/randomized_coloring.hpp"
#include "registry/registry.hpp"
