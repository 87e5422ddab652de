#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <type_traits>

#include "common/rng.hpp"

namespace deltacolor {

Graph::Graph(NodeId num_nodes, std::vector<std::pair<NodeId, NodeId>> edges)
    : Graph(num_nodes, std::move(edges), EdgeListHints{}) {}

Graph::Graph(NodeId num_nodes, std::vector<std::pair<NodeId, NodeId>> edges,
             EdgeListHints hints) {
  for (auto& [u, v] : edges) {
    DC_CHECK_MSG(u != v, "self loop at node " << u);
    DC_CHECK_MSG(u < num_nodes && v < num_nodes,
                 "edge (" << u << "," << v << ") out of range n=" << num_nodes);
    if (hints.normalized || hints.sorted) {
      DC_DCHECK(u < v);
    } else if (u > v) {
      std::swap(u, v);
    }
  }
  const std::size_t n = num_nodes;

  static_assert(sizeof(std::pair<NodeId, NodeId>) == 2 * sizeof(NodeId) &&
                    std::is_standard_layout_v<std::pair<NodeId, NodeId>>,
                "edge pairs must be two packed u32s (on-disk CSR layout)");

  if (hints.sorted) {
    DC_DCHECK(std::is_sorted(edges.begin(), edges.end()));
    if (!hints.unique)
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    else
      DC_DCHECK(std::adjacent_find(edges.begin(), edges.end()) ==
                edges.end());
    edges_ = std::move(edges);
  } else {
    // Counting sort by lower endpoint: histogram → prefix offsets →
    // scatter. Each node's bucket is then sorted and deduplicated
    // independently (buckets have at most deg(u) entries, so this is the
    // per-node merge — no global comparison sort).
    std::vector<std::size_t> bucket_start(n + 1, 0);
    for (const auto& [u, v] : edges) ++bucket_start[u + 1];
    std::partial_sum(bucket_start.begin(), bucket_start.end(),
                     bucket_start.begin());
    std::vector<NodeId> bucket(edges.size());
    {
      std::vector<std::size_t> cursor(bucket_start.begin(),
                                      bucket_start.end() - 1);
      for (const auto& [u, v] : edges) bucket[cursor[u]++] = v;
    }
    edges.clear();
    edges.shrink_to_fit();
    // Sort + dedup each bucket in place; `uniq[u]` is the surviving count.
    std::vector<std::size_t> uniq(n + 1, 0);
    for (std::size_t u = 0; u < n; ++u) {
      const auto lo =
          bucket.begin() + static_cast<std::ptrdiff_t>(bucket_start[u]);
      const auto hi =
          bucket.begin() + static_cast<std::ptrdiff_t>(bucket_start[u + 1]);
      std::sort(lo, hi);
      if (hints.unique) {
        DC_DCHECK(std::adjacent_find(lo, hi) == hi);
        uniq[u + 1] = static_cast<std::size_t>(hi - lo);
      } else {
        uniq[u + 1] = static_cast<std::size_t>(std::unique(lo, hi) - lo);
      }
    }
    std::partial_sum(uniq.begin(), uniq.end(), uniq.begin());
    edges_.resize(uniq[n]);
    for (std::size_t u = 0; u < n; ++u) {
      std::size_t out = uniq[u];
      const std::size_t lo = bucket_start[u];
      for (std::size_t i = 0; i < uniq[u + 1] - uniq[u]; ++i)
        edges_[out++] = {static_cast<NodeId>(u), bucket[lo + i]};
    }
  }

  // CSR materialization. Edge ids are positions in the sorted-unique edge
  // list, so for every node the incident arcs in edge-id order are already
  // sorted by neighbor: in-arcs (u, v) with u < v come first (ascending u,
  // because the edge list is lexicographic), then the node's own out-arcs
  // (v, w), ascending w and contiguous in the edge list. No per-node arc
  // sort is needed — the legacy builder's was a stable no-op.
  offsets_.assign(n + 1, 0);
  std::vector<std::size_t> in_deg(n, 0);
  std::vector<std::size_t> out_start(n + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++offsets_[u + 1];
    ++offsets_[v + 1];
    ++in_deg[v];
    ++out_start[u + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  std::partial_sum(out_start.begin(), out_start.end(), out_start.begin());

  adjacency_.resize(edges_.size() * 2);
  arc_edge_.resize(edges_.size() * 2);
  {
    // In-arcs: one cursor pass in edge-id order (slots per node are
    // filled front to back). Out-arcs: each node copies its contiguous edge
    // range behind its in-arc block.
    std::vector<std::size_t> cursor(n);
    for (std::size_t v = 0; v < n; ++v) cursor[v] = offsets_[v];
    for (EdgeId e = 0; e < edges_.size(); ++e) {
      const NodeId v = edges_[e].second;
      adjacency_[cursor[v]] = edges_[e].first;
      arc_edge_[cursor[v]++] = e;
    }
    for (std::size_t u = 0; u < n; ++u) {
      std::size_t pos = offsets_[u] + in_deg[u];
      for (std::size_t e = out_start[u]; e < out_start[u + 1]; ++e) {
        adjacency_[pos] = edges_[e].second;
        arc_edge_[pos++] = static_cast<EdgeId>(e);
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v)
    max_degree_ = std::max(max_degree_,
                           static_cast<int>(offsets_[v + 1] - offsets_[v]));
  ids_ = identity_ids(num_nodes);
  rebind_owned();
}

void Graph::rebind_owned() {
  off_ = offsets_.data();
  adj_ = adjacency_.data();
  arc_ = arc_edge_.data();
  edge_ = edges_.data();
  id_ = ids_.data();
  num_nodes_ =
      static_cast<NodeId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  num_edges_ = static_cast<EdgeId>(edges_.size());
  storage_.reset();
}

void Graph::rebind_after_copy(const Graph& other) {
  off_ = other.off_ == other.offsets_.data() ? offsets_.data() : other.off_;
  adj_ =
      other.adj_ == other.adjacency_.data() ? adjacency_.data() : other.adj_;
  arc_ =
      other.arc_ == other.arc_edge_.data() ? arc_edge_.data() : other.arc_;
  edge_ = other.edge_ == other.edges_.data() ? edges_.data() : other.edge_;
  id_ = other.id_ == other.ids_.data() ? ids_.data() : other.id_;
}

Graph::Graph(const Graph& other)
    : offsets_(other.offsets_),
      adjacency_(other.adjacency_),
      arc_edge_(other.arc_edge_),
      edges_(other.edges_),
      ids_(other.ids_),
      num_nodes_(other.num_nodes_),
      num_edges_(other.num_edges_),
      max_degree_(other.max_degree_),
      storage_(other.storage_) {
  rebind_after_copy(other);
}

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) return *this;
  offsets_ = other.offsets_;
  adjacency_ = other.adjacency_;
  arc_edge_ = other.arc_edge_;
  edges_ = other.edges_;
  ids_ = other.ids_;
  num_nodes_ = other.num_nodes_;
  num_edges_ = other.num_edges_;
  max_degree_ = other.max_degree_;
  storage_ = other.storage_;
  rebind_after_copy(other);
  return *this;
}

Graph Graph::from_external(const ExternalCsr& csr,
                           std::shared_ptr<const void> storage) {
  Graph g;
  g.off_ = csr.offsets;
  g.adj_ = csr.adjacency;
  g.arc_ = csr.arc_edge;
  g.edge_ = csr.edges;
  g.id_ = csr.ids;
  g.num_nodes_ = csr.num_nodes;
  g.num_edges_ = csr.num_edges;
  g.max_degree_ = csr.max_degree;
  g.storage_ = std::move(storage);
  return g;
}

Graph::ExternalCsr Graph::external_view() const {
  ExternalCsr csr;
  csr.offsets = off_;
  csr.adjacency = adj_;
  csr.arc_edge = arc_;
  csr.edges = edge_;
  csr.ids = id_;
  csr.num_nodes = num_nodes_;
  csr.num_edges = num_edges_;
  csr.max_degree = max_degree_;
  return csr;
}

EdgeId Graph::edge_between(NodeId u, NodeId v) const {
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kNoEdge;
  return incident_edges(u)[static_cast<std::size_t>(it - nbrs.begin())];
}

void Graph::set_ids(std::vector<std::uint64_t> ids) {
  DC_CHECK(ids.size() == num_nodes());
  const auto duplicate = find_duplicate_id(ids);
  DC_CHECK_MSG(!duplicate, "node identifiers must be unique (id "
                               << *duplicate << " repeats)");
  ids_ = std::move(ids);
  id_ = ids_.data();  // the new ids are owned even on a mapped graph
}

bool Graph::within_distance(NodeId u, NodeId v, int radius) const {
  if (u == v) return true;
  std::vector<int> dist(num_nodes(), -1);
  std::queue<NodeId> q;
  dist[u] = 0;
  q.push(u);
  while (!q.empty()) {
    const NodeId x = q.front();
    q.pop();
    if (dist[x] >= radius) continue;
    for (const NodeId y : neighbors(x)) {
      if (dist[y] != -1) continue;
      dist[y] = dist[x] + 1;
      if (y == v) return true;
      q.push(y);
    }
  }
  return false;
}

std::size_t Graph::num_components() const {
  std::vector<bool> seen(num_nodes(), false);
  std::size_t components = 0;
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < num_nodes(); ++s) {
    if (seen[s]) continue;
    ++components;
    seen[s] = true;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      for (const NodeId y : neighbors(x)) {
        if (!seen[y]) {
          seen[y] = true;
          stack.push_back(y);
        }
      }
    }
  }
  return components;
}

std::optional<std::uint64_t> find_duplicate_id(
    std::span<const std::uint64_t> ids) {
  if (ids.empty()) return std::nullopt;
  const std::uint64_t max_id = *std::max_element(ids.begin(), ids.end());
  if (max_id / 64 <= ids.size()) {
    std::vector<std::uint64_t> seen(max_id / 64 + 1, 0);
    for (const std::uint64_t id : ids) {
      std::uint64_t& word = seen[id / 64];
      const std::uint64_t bit = std::uint64_t{1} << (id % 64);
      if (word & bit) return id;
      word |= bit;
    }
    return std::nullopt;
  }
  std::vector<std::uint64_t> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  const auto it = std::adjacent_find(sorted.begin(), sorted.end());
  if (it == sorted.end()) return std::nullopt;
  return *it;
}

std::vector<std::uint64_t> identity_ids(NodeId n) {
  std::vector<std::uint64_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::uint64_t{0});
  return ids;
}

std::vector<std::uint64_t> shuffled_ids(NodeId n, std::uint64_t seed) {
  auto ids = identity_ids(n);
  Rng rng(seed);
  for (NodeId i = n; i > 1; --i) {
    const auto j = rng.below(i);
    std::swap(ids[i - 1], ids[j]);
  }
  return ids;
}

}  // namespace deltacolor
