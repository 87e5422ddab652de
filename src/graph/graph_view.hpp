// Lazy graph views: uniform read-only access to the host graph and to the
// line graph the edge subroutines run on, without materializing its edge
// set.
//
// The GraphView concept is the contract every view-generic subroutine
// (linial_reduce, kw_reduce, schedule_coloring, SyncRunner) compiles
// against:
//
//   num_nodes()              node count of the view
//   degree(v) / max_degree() degrees *in the view*
//   id(v)                    unique LOCAL identifier of view node v
//   for_each_neighbor(v, fn) fn(u) for every view-neighbor u of v,
//                            each exactly once, u != v
//   dilation()               real communication rounds needed to simulate
//                            one synchronous round of the view on the host
//                            network (1 for the host, 2 for the line graph)
//
// A host Graph models the concept itself (dilation 1), so subroutines take
// "const ViewT&" and run unchanged on real and virtual graphs. Laziness
// means the line view stores no adjacency structure: neighbor enumeration
// walks the host CSR on demand. An induced subgraph needs no view: the
// reductions step its nodes on the host graph, over an ascending node list
// with host-indexed states (ActiveNodes, primitives/linial.hpp).
//
// The eager line_graph materializer is the test oracle: tests assert that
// the view enumerates exactly its adjacency (tests/eager_graphs.hpp).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace deltacolor {

namespace detail {
struct NeighborProbe {
  void operator()(NodeId) const {}
};
}  // namespace detail

template <typename G>
concept GraphView =
    requires(const G& g, NodeId v, detail::NeighborProbe probe) {
      { g.num_nodes() } -> std::convertible_to<NodeId>;
      { g.degree(v) } -> std::convertible_to<int>;
      { g.max_degree() } -> std::convertible_to<int>;
      { g.id(v) } -> std::convertible_to<std::uint64_t>;
      { g.dilation() } -> std::convertible_to<int>;
      g.for_each_neighbor(v, probe);
    };

static_assert(GraphView<Graph>);

/// View of the line graph L(G): one node per host EdgeId, adjacency iff
/// the edges share an endpoint. Identifiers match line_graph()'s encoding
/// of the endpoint identifier pair. max_degree() is the structural bound
/// 2*Delta(G) - 2 — computable without communication and the bound the
/// paper's dilation arguments (and the pre-existing edge-coloring palette
/// arithmetic) use; per-node degree(e) is exact. One line-graph round
/// dilates to 2 host rounds (the endpoints sync the edge state over the
/// edge), so dilation() == 2.
class LineGraphView {
 public:
  explicit LineGraphView(const Graph& host) : host_(&host) {}

  NodeId num_nodes() const { return static_cast<NodeId>(host_->num_edges()); }
  int degree(NodeId e) const {
    const auto [u, v] = host_->endpoints(static_cast<EdgeId>(e));
    return host_->degree(u) + host_->degree(v) - 2;
  }
  int max_degree() const { return std::max(0, 2 * host_->max_degree() - 2); }
  std::uint64_t id(NodeId e) const {
    const auto [u, v] = host_->endpoints(static_cast<EdgeId>(e));
    const std::uint64_t a = std::min(host_->id(u), host_->id(v));
    const std::uint64_t b = std::max(host_->id(u), host_->id(v));
    return a * (2 * static_cast<std::uint64_t>(host_->num_nodes()) + 1) + b;
  }
  static constexpr int dilation() { return 2; }

  /// Incident edges at both endpoints, excluding e itself. In a simple
  /// graph no other edge shares both endpoints, so each neighbor appears
  /// exactly once.
  template <typename Fn>
  void for_each_neighbor(NodeId e, Fn&& fn) const {
    const auto [u, v] = host_->endpoints(static_cast<EdgeId>(e));
    for (const EdgeId f : host_->incident_edges(u))
      if (f != static_cast<EdgeId>(e)) fn(static_cast<NodeId>(f));
    for (const EdgeId f : host_->incident_edges(v))
      if (f != static_cast<EdgeId>(e)) fn(static_cast<NodeId>(f));
  }

 private:
  const Graph* host_;
};

static_assert(GraphView<LineGraphView>);

}  // namespace deltacolor
