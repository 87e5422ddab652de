#include "acd/acd.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "local/context.hpp"

namespace deltacolor {

namespace {

int neighbors_in(const Graph& g, NodeId v, const std::vector<int>& clique_of,
                 int c) {
  int count = 0;
  for (const NodeId u : g.neighbors(v))
    if (clique_of[u] == c) ++count;
  return count;
}

}  // namespace

Acd compute_acd(const Graph& g, RoundLedger& ledger, const AcdParams& params) {
  LocalContext ctx(ledger);
  Acd acd;
  acd.epsilon = params.epsilon;
  const NodeId n = g.num_nodes();
  acd.clique_of.assign(n, -1);
  if (n == 0) {
    ctx.charge("acd", 1);
    return acd;
  }
  const int delta = g.max_degree();
  // Friend threshold parameter eta: adjacent u, v are friends when
  // |N(u) ∩ N(v)| >= (1 - eta) * Delta. The 3.5 / Delta floor keeps
  // Delta-cliques recognizable at moderate Delta, including cliques with
  // one deleted edge whose members share only Delta - 3 common neighbors.
  const double eta = std::max(params.epsilon, 3.5 / std::max(1, delta));
  const double friend_threshold = (1.0 - eta) * delta;
  const double dense_threshold = (1.0 - eta) * delta;

  // Round 1: mark friend edges; round 2: count friend neighbors.
  // |N(u) ∩ N(v)| per edge (u, v), u < v: N(u) is stamped once per u, and
  // each higher neighbor's list is counted against the stamp.
  std::vector<bool> friendly(g.num_edges(), false);
  {
    std::vector<NodeId> stamp(n, kNoNode);
    for (NodeId u = 0; u < n; ++u) {
      const auto nbrs = g.neighbors(u);
      const auto inc = g.incident_edges(u);
      for (const NodeId w : nbrs) stamp[w] = u;
      const std::size_t first_higher = static_cast<std::size_t>(
          std::upper_bound(nbrs.begin(), nbrs.end(), u) - nbrs.begin());
      for (std::size_t i = first_higher; i < nbrs.size(); ++i) {
        int common = 0;
        for (const NodeId w : g.neighbors(nbrs[i])) common += stamp[w] == u;
        friendly[inc[i]] = common >= friend_threshold;
      }
    }
  }
  std::vector<bool> dense(n, false);
  for (NodeId v = 0; v < n; ++v) {
    int friends = 0;
    const auto inc = g.incident_edges(v);
    for (const EdgeId e : inc)
      if (friendly[e]) ++friends;
    dense[v] = friends >= dense_threshold;
  }

  // Preliminary ACs: connected components of (dense vertices, friend
  // edges). These components have diameter <= 2 [HSS18], so identifying
  // them is O(1) rounds.
  std::vector<int> comp(n, -1);
  int num_comp = 0;
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (!dense[s] || comp[s] != -1) continue;
    comp[s] = num_comp;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      const auto nbrs = g.neighbors(x);
      const auto inc = g.incident_edges(x);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const NodeId y = nbrs[i];
        if (!friendly[inc[i]] || !dense[y] || comp[y] != -1) continue;
        comp[y] = num_comp;
        stack.push_back(y);
      }
    }
    ++num_comp;
  }
  acd.clique_of = comp;

  // O(1)-round repair toward Lemma 2's guarantees.
  const double eps = params.epsilon;
  const double min_size = (1.0 - eps / 4.0) * delta;
  const double max_size = (1.0 + eps) * delta;
  const double member_threshold = (1.0 - eps) * delta;     // (ii)
  const double absorb_threshold = (1.0 - eps / 2.0) * delta;  // (iii)
  for (int it = 0; it < kAcdRepairIterations; ++it) {
    bool changed = false;
    // (ii): evict members with too few internal neighbors.
    for (NodeId v = 0; v < n; ++v) {
      const int c = acd.clique_of[v];
      if (c == -1) continue;
      if (neighbors_in(g, v, acd.clique_of, c) < member_threshold) {
        acd.clique_of[v] = -1;
        changed = true;
      }
    }
    // (iii): absorb outsiders with too many neighbors in one AC.
    for (NodeId v = 0; v < n; ++v) {
      if (acd.clique_of[v] != -1) continue;
      // Count neighbors per adjacent AC.
      int best_c = -1, best = 0;
      std::vector<std::pair<int, int>> counts;
      for (const NodeId u : g.neighbors(v)) {
        const int c = acd.clique_of[u];
        if (c == -1) continue;
        bool found = false;
        for (auto& [cc, k] : counts)
          if (cc == c) {
            ++k;
            found = true;
          }
        if (!found) counts.emplace_back(c, 1);
      }
      for (const auto& [cc, k] : counts)
        if (k > best) {
          best = k;
          best_c = cc;
        }
      if (best_c != -1 && best > absorb_threshold) {
        acd.clique_of[v] = best_c;
        changed = true;
      }
    }
    // (i): dissolve components outside the size window.
    std::vector<int> size(num_comp, 0);
    for (NodeId v = 0; v < n; ++v)
      if (acd.clique_of[v] != -1) ++size[acd.clique_of[v]];
    for (NodeId v = 0; v < n; ++v) {
      const int c = acd.clique_of[v];
      if (c == -1) continue;
      if (size[c] < min_size || size[c] > max_size) {
        acd.clique_of[v] = -1;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Compact AC indices and fill member lists.
  std::vector<int> remap(num_comp, -1);
  for (NodeId v = 0; v < n; ++v) {
    const int c = acd.clique_of[v];
    if (c == -1) {
      acd.sparse.push_back(v);
      continue;
    }
    if (remap[c] == -1) {
      remap[c] = static_cast<int>(acd.cliques.size());
      acd.cliques.emplace_back();
    }
    acd.clique_of[v] = remap[c];
    acd.cliques[static_cast<std::size_t>(remap[c])].push_back(v);
  }
  // The whole computation is a constant number of bounded-radius steps
  // (friend marking: 1 round; density: 1; components of diameter <= 2: 3;
  // each repair sweep: 2). The paper charges O(1); we charge the actual
  // constant.
  ctx.charge("acd", 5 + 2 * kAcdRepairIterations);
  return acd;
}

std::vector<std::string> validate_acd(const Graph& g, const Acd& acd) {
  std::vector<std::string> violations;
  const int delta = g.max_degree();
  const double eps = acd.epsilon;
  auto complain = [&violations](const std::ostringstream& os) {
    violations.push_back(os.str());
  };
  for (std::size_t c = 0; c < acd.cliques.size(); ++c) {
    const auto& members = acd.cliques[c];
    // (i) size window.
    if (members.size() < (1.0 - eps / 4.0) * delta ||
        members.size() > (1.0 + eps) * delta) {
      std::ostringstream os;
      os << "AC " << c << " size " << members.size()
         << " outside [(1-eps/4)D, (1+eps)D] for Delta=" << delta;
      complain(os);
    }
    // (ii) internal degree.
    for (const NodeId v : members) {
      int internal = 0;
      for (const NodeId u : g.neighbors(v))
        if (acd.clique_of[u] == static_cast<int>(c)) ++internal;
      if (internal < (1.0 - eps) * delta) {
        std::ostringstream os;
        os << "node " << v << " has only " << internal
           << " neighbors inside its AC " << c;
        complain(os);
      }
      // Observation 3: external neighbors <= eps * Delta.
      const int external = g.degree(v) - internal;
      if (external > eps * delta) {
        std::ostringstream os;
        os << "node " << v << " has " << external
           << " external neighbors > eps*Delta";
        complain(os);
      }
    }
  }
  // (iii) outsiders.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::vector<std::pair<int, int>> counts;
    for (const NodeId u : g.neighbors(v)) {
      const int c = acd.clique_of[u];
      if (c == -1 || c == acd.clique_of[v]) continue;
      bool found = false;
      for (auto& [cc, k] : counts)
        if (cc == c) {
          ++k;
          found = true;
        }
      if (!found) counts.emplace_back(c, 1);
    }
    for (const auto& [cc, k] : counts) {
      if (k > (1.0 - eps / 2.0) * delta) {
        std::ostringstream os;
        os << "outsider " << v << " has " << k << " neighbors in AC " << cc;
        complain(os);
      }
    }
  }
  return violations;
}

}  // namespace deltacolor
