// Immutable undirected simple graph in CSR form.
//
// Nodes are dense indices 0..n-1. Separately, every node carries a LOCAL
// identifier (Graph::id): distributed algorithms must break symmetry using
// these identifiers only, so test harnesses can permute them adversarially
// without touching the topology.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace deltacolor {

/// What the caller already knows about an edge list handed to Graph's
/// builder. Generators that emit structured edge lists (clique blow-ups,
/// product graphs, G(n, p) in row-major order) declare it here so the
/// builder can skip normalization, per-node dedup, or the counting sort
/// entirely. Hints are promises: they are DCHECK-verified in debug builds,
/// and a wrong hint in a release build produces a malformed graph.
struct EdgeListHints {
  /// Every pair already satisfies u < v.
  bool normalized = false;
  /// No duplicate pairs (after normalization).
  bool unique = false;
  /// Lexicographically sorted by (u, v); implies `normalized`.
  bool sorted = false;
};

inline constexpr EdgeListHints kUnsortedEdges{};
inline constexpr EdgeListHints kNormalizedUniqueEdges{true, true, false};
inline constexpr EdgeListHints kSortedUniqueEdges{true, true, true};

class Graph {
 public:
  /// Borrowed CSR arrays — the zero-copy exchange shape between Graph and
  /// external storage (an mmap'd .dcsr file, a serializer). All pointers
  /// reference memory owned elsewhere; `edges` uses the in-memory pair
  /// layout, which csr_file static-asserts is exactly two packed u32s.
  struct ExternalCsr {
    const std::uint64_t* offsets = nullptr;            // size num_nodes + 1
    const NodeId* adjacency = nullptr;                 // size 2 * num_edges
    const EdgeId* arc_edge = nullptr;                  // size 2 * num_edges
    const std::pair<NodeId, NodeId>* edges = nullptr;  // size num_edges
    const std::uint64_t* ids = nullptr;                // size num_nodes
    NodeId num_nodes = 0;
    EdgeId num_edges = 0;
    int max_degree = 0;
  };

  Graph() = default;

  /// Builds from an edge list. Edges must be simple (no self loops); pairs
  /// are deduplicated. Node count is explicit so isolated nodes survive.
  ///
  /// The builder is sort-free: a two-pass counting sort (per-lower-endpoint
  /// degree histogram → prefix offsets → scatter) buckets the edges, each
  /// node's small bucket is sorted and deduplicated independently, and the
  /// CSR arcs are materialized per node — no global comparison sort ever
  /// runs. The result is bit-identical to the sort+unique builder it
  /// replaced (kept as the oracle in tests/test_csr_builder.cpp): same edge
  /// ids, offsets, adjacency order, and arc/edge alignment.
  Graph(NodeId num_nodes, std::vector<std::pair<NodeId, NodeId>> edges);

  /// Same, with caller-declared structure (see EdgeListHints).
  Graph(NodeId num_nodes, std::vector<std::pair<NodeId, NodeId>> edges,
        EdgeListHints hints);

  /// Zero-copy adoption of externally owned CSR arrays (the mmap load
  /// path). `storage` is an opaque keep-alive: the Graph holds it for its
  /// lifetime so the mapping outlives every view handed out. The arrays
  /// are trusted — csr_file validates magic/version/checksums before
  /// calling this.
  static Graph from_external(const ExternalCsr& csr,
                             std::shared_ptr<const void> storage);

  /// This graph's arrays as borrowed views (the serialization path).
  ExternalCsr external_view() const;

  /// Copies rebind the hot-path views onto the copied buffers (or share the
  /// external mapping); moves are cheap — vector buffers are stable under
  /// move, so the views transfer as-is.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&&) noexcept = default;
  Graph& operator=(Graph&&) noexcept = default;
  ~Graph() = default;

  NodeId num_nodes() const { return num_nodes_; }
  EdgeId num_edges() const { return num_edges_; }

  int degree(NodeId v) const {
    return static_cast<int>(off_[v + 1] - off_[v]);
  }

  int max_degree() const { return max_degree_; }

  /// Neighbors of v, sorted ascending by node index.
  std::span<const NodeId> neighbors(NodeId v) const {
    return {adj_ + off_[v], adj_ + off_[v + 1]};
  }

  /// Calls fn(u) for every neighbor u of v (ascending). Part of the
  /// GraphView concept (graph_view.hpp): a host Graph is itself a view of
  /// dilation 1, so view-generic subroutines run on it directly.
  template <typename Fn>
  void for_each_neighbor(NodeId v, Fn&& fn) const {
    for (const NodeId u : neighbors(v)) fn(u);
  }

  /// Real communication rounds per round on this graph (GraphView concept);
  /// the host graph is the network itself.
  static constexpr int dilation() { return 1; }

  /// Edge index of each arc out of v, aligned with neighbors(v).
  std::span<const EdgeId> incident_edges(NodeId v) const {
    return {arc_ + off_[v], arc_ + off_[v + 1]};
  }

  bool has_edge(NodeId u, NodeId v) const {
    return edge_between(u, v) != kNoEdge;
  }

  /// Edge index between u and v, or kNoEdge. O(log deg) via binary search.
  EdgeId edge_between(NodeId u, NodeId v) const;

  /// Endpoints of edge e with endpoints().first < endpoints().second.
  std::pair<NodeId, NodeId> endpoints(EdgeId e) const { return edge_[e]; }

  /// Given edge e incident to v, the other endpoint.
  NodeId other_endpoint(EdgeId e, NodeId v) const {
    const auto [a, b] = edge_[e];
    DC_DCHECK(v == a || v == b);
    return v == a ? b : a;
  }

  /// LOCAL-model identifier of node v (unique, not necessarily 0..n-1).
  std::uint64_t id(NodeId v) const { return id_[v]; }

  /// Installs a fresh identifier assignment (must be unique, size n;
  /// checked with find_duplicate_id). Works on mapped graphs too: the new
  /// ids become owned storage while every other section stays zero-copy.
  void set_ids(std::vector<std::uint64_t> ids);

  /// All edges as (u, v) pairs with u < v. On a mapped graph this view
  /// touches the file's edges section — hot paths should prefer adjacency
  /// iteration so those pages stay cold.
  std::span<const std::pair<NodeId, NodeId>> edges() const {
    return {edge_, static_cast<std::size_t>(num_edges_)};
  }

  /// True if u and v are within distance `radius` (BFS; intended for tests
  /// and small virtual graphs, not hot paths).
  bool within_distance(NodeId u, NodeId v, int radius) const;

  /// Number of connected components.
  std::size_t num_components() const;

 private:
  /// Points the hot-path views at this graph's own vectors and refreshes
  /// the cached counts (the tail step of every in-memory build).
  void rebind_owned();
  /// Copy-construction helper: for each section, rebind to this graph's
  /// freshly copied vector when `other` viewed its own buffer, else keep
  /// the external pointer (the shared mapping was copied via storage_).
  void rebind_after_copy(const Graph& other);

  // Owned storage. Empty for sections that live in an external mapping.
  std::vector<std::uint64_t> offsets_;  // size n+1
  std::vector<NodeId> adjacency_;       // size 2m, sorted per node
  std::vector<EdgeId> arc_edge_;        // size 2m, aligned with adjacency_
  std::vector<std::pair<NodeId, NodeId>> edges_;  // size m, u < v
  std::vector<std::uint64_t> ids_;      // size n

  // Hot-path views: every accessor reads through these. Each points into
  // the owned vector above or into storage_-backed external memory.
  const std::uint64_t* off_ = nullptr;
  const NodeId* adj_ = nullptr;
  const EdgeId* arc_ = nullptr;
  const std::pair<NodeId, NodeId>* edge_ = nullptr;
  const std::uint64_t* id_ = nullptr;

  NodeId num_nodes_ = 0;
  EdgeId num_edges_ = 0;
  int max_degree_ = 0;

  /// Opaque keep-alive for external storage (e.g. the mmap'd file). Shared
  /// across copies so the mapping drops only when the last view dies.
  std::shared_ptr<const void> storage_;
};

/// A value that occurs more than once in `ids`, or nullopt when all are
/// distinct. When max(ids) / 64 <= ids.size() it marks a bitmap over
/// [0, max(ids)] (two O(n) passes, at most 8 * (n + 1) bytes) and returns
/// the first id met twice in index order; otherwise it sorts a copy and
/// returns the smallest repeated value. Either way the verdict is exact.
std::optional<std::uint64_t> find_duplicate_id(
    std::span<const std::uint64_t> ids);

/// Convenience: identity identifiers 0..n-1.
std::vector<std::uint64_t> identity_ids(NodeId n);

/// Random permutation identifiers (for adversarial/randomized ID tests).
std::vector<std::uint64_t> shuffled_ids(NodeId n, std::uint64_t seed);

}  // namespace deltacolor
