#include "primitives/heg.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace deltacolor {

namespace {

// Alternating BFS from a free vertex in the (vertex, hyperedge) bipartite
// incidence graph: vertex -> any incident hyperedge; hyperedge -> its
// current grabber. find() returns the augmenting path as alternating
// vertex/hyperedge indices (v0, f0, v1, f1, .., fk) where fk is free, or an
// empty vector if none exists within `depth_cap` vertex layers. Elements
// flagged in `blocked_*` (already used by another augmentation this
// iteration) are skipped.
//
// The visit arrays live as long as the search object and each find()
// resets only the entries it set, so a search costs what it visits, not
// |V_h| + |E_h|. The visited vertices double as the BFS queue.
class AugmentingPathSearch {
 public:
  explicit AugmentingPathSearch(const Hypergraph& h)
      : h_(h),
        prev_vertex_of_edge_(static_cast<std::size_t>(h.num_edges()),
                             kUnvisited),
        prev_edge_of_vertex_(h.num_vertices, kUnvisited) {}

  std::vector<int> find(const std::vector<int>& grabber, int source,
                        int depth_cap, const NodeMask& blocked_vertex,
                        const NodeMask& blocked_edge) {
    visited_vertices_.assign(1, source);
    visited_edges_.clear();
    prev_edge_of_vertex_[source] = -1;
    int free_edge = -1;
    std::size_t head = 0;
    for (int depth = 0; head < visited_vertices_.size() && free_edge == -1 &&
                        depth < depth_cap;
         ++depth) {
      const std::size_t layer_end = visited_vertices_.size();
      for (; head < layer_end && free_edge == -1; ++head) {
        const int v = visited_vertices_[head];
        for (const int f : h_.incidence(v)) {
          if (prev_vertex_of_edge_[f] != kUnvisited || blocked_edge[f])
            continue;
          prev_vertex_of_edge_[f] = v;
          visited_edges_.push_back(f);
          const int w = grabber[f];
          if (w == -1) {
            free_edge = f;
            break;
          }
          if (prev_edge_of_vertex_[w] != kUnvisited || blocked_vertex[w])
            continue;
          prev_edge_of_vertex_[w] = f;
          visited_vertices_.push_back(w);
        }
      }
    }
    std::vector<int> path;
    if (free_edge != -1) {
      // Reconstruct: fk, v_k, f_{k-1}, .., v_0 reversed.
      int f = free_edge;
      for (;;) {
        path.push_back(f);
        const int v = prev_vertex_of_edge_[f];
        path.push_back(v);
        if (v == source) break;
        f = prev_edge_of_vertex_[v];
      }
      std::reverse(path.begin(), path.end());
    }
    for (const int v : visited_vertices_) prev_edge_of_vertex_[v] = kUnvisited;
    for (const int f : visited_edges_) prev_vertex_of_edge_[f] = kUnvisited;
    return path;  // v0 f0 v1 f1 .. fk
  }

 private:
  static constexpr int kUnvisited = -2;

  const Hypergraph& h_;
  std::vector<int> prev_vertex_of_edge_;
  std::vector<int> prev_edge_of_vertex_;
  std::vector<int> visited_vertices_;  // BFS order; also the queue
  std::vector<int> visited_edges_;
};

void apply_augmenting_path(std::vector<int>& grabbed_edge,
                           std::vector<int>& grabber,
                           const std::vector<int>& path) {
  // path = v0 f0 v1 f1 .. v_k f_k: v_i grabs f_i.
  DC_CHECK(path.size() % 2 == 0);
  for (std::size_t i = 0; i < path.size(); i += 2) {
    const int v = path[i];
    const int f = path[i + 1];
    grabbed_edge[v] = f;
    grabber[f] = v;
  }
}

}  // namespace

HegResult solve_heg(const Hypergraph& h, LocalContext& ctx) {
  DefaultPhase scope(ctx, "heg");
  DC_CHECK_MSG(h.has_incidence(), "call build_incidence() before solve_heg");
  HegResult res;
  const int num_edges = h.num_edges();
  res.grabbed_edge.assign(h.num_vertices, -1);
  res.grabber.assign(num_edges, -1);

  // Greedy first wave: every vertex proposes to its first incident
  // hyperedge; an edge accepts one proposer. Repeated a few times this
  // grabs most vertices in O(1) rounds; the remainder augment below.
  for (int wave = 0; wave < 3; ++wave) {
    for (int v = 0; v < h.num_vertices; ++v) {
      if (res.grabbed_edge[v] != -1) continue;
      for (const int f : h.incidence(v)) {
        if (res.grabber[f] == -1) {
          res.grabber[f] = v;
          res.grabbed_edge[v] = f;
          break;
        }
      }
    }
    res.rounds += 2;  // propose + accept
  }

  // Phase-doubling augmentation: while free vertices remain, every free
  // vertex searches an alternating path of bounded depth; a maximal
  // vertex-disjoint subset of the found paths is applied (simulated
  // greedily in identifier order; a LOCAL implementation resolves the
  // conflicts inside the paths' bounded neighborhoods).
  int radius = 2;
  const int hard_cap = 4 * (h.num_vertices + num_edges) + 16;
  AugmentingPathSearch search(h);
  while (true) {
    std::vector<int> free_vertices;
    for (int v = 0; v < h.num_vertices; ++v)
      if (res.grabbed_edge[v] == -1) free_vertices.push_back(v);
    if (free_vertices.empty()) {
      res.complete = true;
      break;
    }
    NodeMask blocked_vertex(h.num_vertices, 0);
    NodeMask blocked_edge(num_edges, 0);
    bool any = false;
    for (const int v : free_vertices) {
      if (blocked_vertex[v]) continue;
      const auto path =
          search.find(res.grabber, v, radius, blocked_vertex, blocked_edge);
      if (path.empty()) continue;
      apply_augmenting_path(res.grabbed_edge, res.grabber, path);
      for (std::size_t i = 0; i < path.size(); i += 2) {
        blocked_vertex[path[i]] = 1;
        blocked_edge[path[i + 1]] = 1;
      }
      any = true;
    }
    // One augmentation iteration costs O(radius) rounds: BFS out, conflict
    // resolution within the paths' radius-bounded neighborhoods, commit.
    res.rounds += 3 * radius;
    if (!any) {
      if (radius >= hard_cap) break;  // infeasible instance
      radius *= 2;
    }
  }
  ctx.charge(res.rounds);
  return res;
}

HegResult solve_heg_centralized(const Hypergraph& h) {
  DC_CHECK(h.has_incidence());
  HegResult res;
  const int num_edges = h.num_edges();
  res.grabbed_edge.assign(h.num_vertices, -1);
  res.grabber.assign(num_edges, -1);
  // Kuhn's algorithm with DFS augmentation (simple, exact).
  std::vector<int> stamp(num_edges, -1);
  auto try_augment = [&](auto&& self, int v, int iteration) -> bool {
    for (const int f : h.incidence(v)) {
      if (stamp[f] == iteration) continue;
      stamp[f] = iteration;
      if (res.grabber[f] == -1 ||
          self(self, res.grabber[f], iteration)) {
        res.grabber[f] = v;
        res.grabbed_edge[v] = f;
        return true;
      }
    }
    return false;
  };
  res.complete = true;
  for (int v = 0; v < h.num_vertices; ++v)
    if (!try_augment(try_augment, v, v)) res.complete = false;
  return res;
}

bool is_valid_heg(const Hypergraph& h, const HegResult& r,
                  bool require_complete) {
  if (static_cast<int>(r.grabbed_edge.size()) != h.num_vertices) return false;
  std::vector<int> grab_count(static_cast<std::size_t>(h.num_edges()), 0);
  for (int v = 0; v < h.num_vertices; ++v) {
    const int f = r.grabbed_edge[v];
    if (f == -1) {
      if (require_complete) return false;
      continue;
    }
    if (f < 0 || f >= h.num_edges()) return false;
    // Grab must be incident.
    const auto members = h.edge(f);
    if (std::find(members.begin(), members.end(), v) == members.end())
      return false;
    if (++grab_count[f] > 1) return false;
  }
  return true;
}

}  // namespace deltacolor
