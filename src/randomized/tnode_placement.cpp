#include "randomized/tnode_placement.hpp"

#include <algorithm>
#include <cstddef>
#include <tuple>

#include "common/check.hpp"

namespace deltacolor {

namespace {

// Status bits, one byte per node.
constexpr std::uint8_t kBlocked = 1;   // within `spacing` of a placed pair
constexpr std::uint8_t kSlack = 2;     // a placed slack vertex
constexpr std::uint8_t kColored = 4;   // holds a color
constexpr std::uint8_t kLoophole = 8;  // member of a detected loophole
constexpr std::uint8_t kNearPair = 16;  // has a kTnodeColor neighbor

// Who may play which role in an attempt.
constexpr std::uint8_t kSlackBars = kSlack | kColored;
constexpr std::uint8_t kInnerBars = kBlocked | kSlack | kColored;
constexpr std::uint8_t kOuterBars = kInnerBars | kLoophole;

constexpr std::size_t words_for(std::size_t members) {
  return (members + 63) / 64;
}

/// Per-clique lookup tables over member slots (see the header). Clique h
/// is hard_acs[h]; its member slots are global slots slot_off[h] + i.
struct CliqueTables {
  std::vector<std::size_t> slot_off;  // per clique, size H + 1
  std::vector<std::size_t> adj_off;   // per clique: first adj word
  std::vector<std::size_t> touch_off;  // per clique: first touch word
  std::vector<std::uint64_t> adj;     // per slot: W words
  std::vector<std::size_t> ext_off;   // per slot, size S + 1
  std::vector<NodeId> ext_node;       // per external arc
  std::vector<std::uint32_t> ext_touch;  // per external arc: touch index
  std::vector<std::uint64_t> touch;   // per distinct external: W words
  std::size_t max_words = 1;          // the widest clique's W
};

CliqueTables build_tables(const Graph& g, const Acd& acd,
                          const std::vector<int>& hard_acs) {
  CliqueTables t;
  const std::size_t num = hard_acs.size();
  t.slot_off.assign(num + 1, 0);
  t.adj_off.assign(num, 0);
  t.touch_off.assign(num, 0);
  std::size_t adj_words = 0;
  for (std::size_t h = 0; h < num; ++h) {
    const std::size_t k = acd.cliques[static_cast<std::size_t>(hard_acs[h])].size();
    DC_CHECK_MSG(k > 0, "T-node placement on an empty clique");
    t.slot_off[h + 1] = t.slot_off[h] + k;
    t.adj_off[h] = adj_words;
    adj_words += k * words_for(k);
    t.max_words = std::max(t.max_words, words_for(k));
  }
  const std::size_t slots = t.slot_off[num];
  t.adj.assign(adj_words, 0);
  t.ext_off.assign(slots + 1, 0);
  t.ext_node.reserve(slots);
  t.ext_touch.reserve(slots);
  t.touch.reserve(slots);

  // local[x] while clique c is being built: x's slot when x is a member,
  // its touch index when x is an external neighbor, -1 otherwise.
  std::vector<std::int32_t> local(g.num_nodes(), -1);
  std::vector<NodeId> externals;
  for (std::size_t h = 0; h < num; ++h) {
    const int c = hard_acs[h];
    const auto& members = acd.cliques[static_cast<std::size_t>(c)];
    const std::size_t k = members.size();
    const std::size_t words = words_for(k);
    for (std::size_t i = 0; i < k; ++i)
      local[members[i]] = static_cast<std::int32_t>(i);
    t.touch_off[h] = t.touch.size();
    externals.clear();
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t s = t.slot_off[h] + i;
      std::uint64_t* adj = t.adj.data() + t.adj_off[h] + i * words;
      for (const NodeId x : g.neighbors(members[i])) {
        if (acd.clique_of[x] == c) {
          DC_DCHECK(local[x] >= 0);
          const auto j = static_cast<std::size_t>(local[x]);
          adj[j >> 6] |= std::uint64_t{1} << (j & 63);
          continue;
        }
        if (local[x] == -1) {
          local[x] = static_cast<std::int32_t>(externals.size());
          externals.push_back(x);
          t.touch.resize(t.touch.size() + words, 0);
        }
        const auto e = static_cast<std::size_t>(local[x]);
        t.touch[t.touch_off[h] + e * words + (i >> 6)] |= std::uint64_t{1}
                                                          << (i & 63);
        t.ext_node.push_back(x);
        t.ext_touch.push_back(static_cast<std::uint32_t>(e));
      }
      t.ext_off[s + 1] = t.ext_node.size();
    }
    for (const NodeId m : members) local[m] = -1;
    for (const NodeId x : externals) local[x] = -1;
  }
  return t;
}

/// Index of the k-th (0-based) set bit of w[0..words).
std::size_t select_bit(const std::uint64_t* w, std::size_t words,
                       std::uint64_t k) {
  for (std::size_t i = 0; i < words; ++i) {
    const auto pop = static_cast<std::uint64_t>(__builtin_popcountll(w[i]));
    if (k >= pop) {
      k -= pop;
      continue;
    }
    std::uint64_t word = w[i];
    while (k-- > 0) word &= word - 1;  // drop the k lowest set bits
    return i * 64 + static_cast<std::size_t>(__builtin_ctzll(word));
  }
  DC_CHECK_MSG(false, "select_bit: rank beyond the set bits");
  return 0;
}

/// Sets `bit` on every vertex within distance `radius` of v — a BFS with
/// its own visited stamps, so balls overlapping earlier ones still reach
/// their full radius. Radius 0 and 1 need no BFS.
class BallMarker {
 public:
  BallMarker(const Graph& g, int radius) : g_(g), radius_(radius) {
    if (radius_ >= 2) stamp_.assign(g.num_nodes(), 0);
  }

  void mark(NodeId v, std::vector<std::uint8_t>& status, std::uint8_t bit) {
    status[v] |= bit;
    if (radius_ == 0) return;
    if (radius_ == 1) {
      for (const NodeId y : g_.neighbors(v)) status[y] |= bit;
      return;
    }
    ++epoch_;
    stamp_[v] = epoch_;
    frontier_.assign(1, v);
    for (int d = 0; d < radius_ && !frontier_.empty(); ++d) {
      next_.clear();
      for (const NodeId x : frontier_) {
        for (const NodeId y : g_.neighbors(x)) {
          if (stamp_[y] == epoch_) continue;
          stamp_[y] = epoch_;
          status[y] |= bit;
          next_.push_back(y);
        }
      }
      frontier_.swap(next_);
    }
  }

 private:
  const Graph& g_;
  int radius_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;
  std::vector<NodeId> frontier_, next_;
};

}  // namespace

TnodePlacement place_tnodes(const Graph& g, const Acd& acd,
                            const LoopholeSet& loopholes,
                            const std::vector<int>& hard_acs, int rounds,
                            int spacing, std::uint64_t seed, Rng& rng,
                            std::vector<Color>& color) {
  const NodeId n = g.num_nodes();
  DC_CHECK(color.size() == n);
  TnodePlacement out;
  out.triad_of_clique.resize(acd.cliques.size());
  out.placed.assign(acd.cliques.size(), 0);

  std::vector<std::uint8_t> status(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (loopholes.vertex_in_loophole(v)) status[v] |= kLoophole;
    if (color[v] == kNoColor) continue;
    status[v] |= kColored;
    if (color[v] == kTnodeColor)
      for (const NodeId y : g.neighbors(v)) status[y] |= kNearPair;
  }

  {
    const CliqueTables t = build_tables(g, acd, hard_acs);
    std::vector<std::uint64_t> avail(t.max_words), inner(t.max_words);
    BallMarker ball(g, spacing);
    // (priority, clique, rank into hard_acs) of the cliques still
    // unplaced; one buffer for all rounds.
    std::vector<std::tuple<std::uint64_t, int, std::size_t>> order;
    order.reserve(hard_acs.size());

    for (int round = 0; round < rounds; ++round) {
      // Random processing priority simulates the local conflict
      // resolution.
      order.clear();
      for (std::size_t h = 0; h < hard_acs.size(); ++h)
        if (!out.placed[static_cast<std::size_t>(hard_acs[h])])
          order.emplace_back(hash_mix(seed, hard_acs[h], round), hard_acs[h],
                             h);
      std::sort(order.begin(), order.end());
      for (const auto& [prio, c, h] : order) {
        const auto& members = acd.cliques[static_cast<std::size_t>(c)];
        const std::size_t k = members.size();
        const std::size_t words = words_for(k);
        // Members that may become the inner pair vertex. Statuses change
        // only when an attempt succeeds, which ends this clique's turn.
        std::fill(avail.begin(), avail.begin() + static_cast<long>(words), 0);
        for (std::size_t i = 0; i < k; ++i)
          if (!(status[members[i]] & kInnerBars))
            avail[i >> 6] |= std::uint64_t{1} << (i & 63);
        const std::uint64_t* adj_base = t.adj.data() + t.adj_off[h];
        const std::uint64_t* touch_base = t.touch.data() + t.touch_off[h];
        for (int attempt = 0; attempt < 20; ++attempt) {
          const std::size_t i = rng.below(k);
          const NodeId u = members[i];
          if (status[u] & kSlackBars) continue;
          // External neighbor of u: not a loophole member (its easy clique
          // must keep its loophole intact), unblocked, unused, uncolored.
          const std::size_t s = t.slot_off[h] + i;
          const std::size_t e_begin = t.ext_off[s], e_end = t.ext_off[s + 1];
          std::uint64_t outer = 0;
          for (std::size_t e = e_begin; e < e_end; ++e)
            if (!(status[t.ext_node[e]] & kOuterBars)) ++outer;
          if (outer == 0) continue;
          std::uint64_t pick = rng.below(outer);
          std::size_t e = e_begin;
          for (;; ++e) {
            if (status[t.ext_node[e]] & kOuterBars) continue;
            if (pick-- == 0) break;
          }
          const NodeId w = t.ext_node[e];
          // Pair partner inside the clique: adjacent to u, available, not
          // adjacent to w.
          const std::uint64_t* adj = adj_base + i * words;
          const std::uint64_t* touch =
              touch_base + static_cast<std::size_t>(t.ext_touch[e]) * words;
          std::uint64_t count = 0;
          for (std::size_t x = 0; x < words; ++x) {
            inner[x] = adj[x] & avail[x] & ~touch[x];
            count += static_cast<std::uint64_t>(__builtin_popcountll(inner[x]));
          }
          if (count == 0) continue;
          const NodeId v =
              members[select_bit(inner.data(), words, rng.below(count))];
          // Pair independence: all pairs share kTnodeColor, so neither v
          // nor w may touch an existing pair vertex.
          if ((status[v] | status[w]) & kNearPair) continue;
          for (const NodeId p : {v, w}) {
            color[p] = kTnodeColor;
            status[p] |= kColored;
            for (const NodeId y : g.neighbors(p)) status[y] |= kNearPair;
          }
          out.triad_of_clique[static_cast<std::size_t>(c)] =
              TnodeTriad{u, v, w};
          out.placed[static_cast<std::size_t>(c)] = 1;
          status[u] |= kSlack;
          ball.mark(v, status, kBlocked);
          ball.mark(w, status, kBlocked);
          break;
        }
      }
    }
  }

  out.slack_used.resize(n);
  out.pair_blocked.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    out.slack_used[v] = (status[v] & kSlack) != 0;
    out.pair_blocked[v] = (status[v] & kBlocked) != 0;
  }
  return out;
}

}  // namespace deltacolor
