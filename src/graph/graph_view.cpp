#include "graph/graph_view.hpp"

namespace deltacolor {

PowerGraphView::PowerGraphView(const Graph& host, int radius)
    : host_(&host), radius_(radius) {
  DC_CHECK(radius >= 1);
  const NodeId n = host.num_nodes();
  degree_.assign(n, 0);
  // Exact ball sizes via one bounded BFS per node (same work the eager
  // power_graph() spends, but nothing beyond the degree array is kept).
  std::vector<int> dist(n, -1);
  std::vector<NodeId> queue;
  std::vector<NodeId> touched;
  for (NodeId s = 0; s < n; ++s) {
    queue.clear();
    touched.clear();
    dist[s] = 0;
    touched.push_back(s);
    queue.push_back(s);
    int d = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId x = queue[head];
      if (dist[x] >= radius_) continue;
      for (const NodeId y : host.neighbors(x)) {
        if (dist[y] != -1) continue;
        dist[y] = dist[x] + 1;
        touched.push_back(y);
        queue.push_back(y);
        ++d;
      }
    }
    for (const NodeId t : touched) dist[t] = -1;
    degree_[s] = d;
    max_degree_ = std::max(max_degree_, d);
  }
}

}  // namespace deltacolor
