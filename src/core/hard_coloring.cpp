#include "core/hard_coloring.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/checker.hpp"
#include "primitives/degree_splitting.hpp"
#include "primitives/heg.hpp"
#include "primitives/list_coloring.hpp"
#include "primitives/maximal_matching.hpp"

namespace deltacolor {

namespace {

struct Context {
  const Graph& g;
  const Acd& acd;
  const Hardness& hardness;
  const HardColoringParams& params;
  int delta;

  std::vector<int> hard_rank;  // AC index -> dense rank among hard, -1
  std::vector<int> hard_acs;   // rank -> AC index
  NodeMask in_heg_clique;      // per AC (by index): member of C_HEG
  int k_eff = 0;
  int levels_eff = 0;
};

// Oriented F2/F3 edge: tail in the grabbing clique, head outside.
struct OrientedEdge {
  NodeId tail = kNoNode;
  NodeId head = kNoNode;
};

// Phase 1, first step: F1, a maximal matching on the edges between hard
// cliques, as host endpoint pairs. T_MM is realized by the Panconesi-Rizzi
// O(Delta + log* n) matcher [PR01] on hx, the graph of those edges over the
// hard nodes; hx and its ids live only here. Also fills `useful`: the hard
// nodes with a neighbor in another hard clique, which are exactly hx's
// non-isolated nodes.
std::vector<std::pair<NodeId, NodeId>> match_hard_cliques(
    const Context& ctx, const std::vector<NodeId>& hard_nodes,
    NodeMask& useful, LocalContext& lctx) {
  const Graph& g = ctx.g;
  const Acd& acd = ctx.acd;
  // v ascends, then u > v ascends within v's sorted neighbors, and sub_of
  // is monotone: the pairs come out sorted and unique.
  std::vector<std::pair<NodeId, NodeId>> cross_pairs;
  {
    std::vector<NodeId> sub_of(g.num_nodes(), kNoNode);
    for (NodeId i = 0; i < hard_nodes.size(); ++i) sub_of[hard_nodes[i]] = i;
    for (const NodeId v : hard_nodes) {
      for (const NodeId u : g.neighbors(v)) {
        if (u < v || !ctx.hardness.in_hard[u]) continue;
        if (acd.clique_of[u] == acd.clique_of[v]) continue;
        cross_pairs.emplace_back(sub_of[v], sub_of[u]);
      }
    }
  }
  Graph hx(static_cast<NodeId>(hard_nodes.size()), std::move(cross_pairs),
           kSortedUniqueEdges);
  {
    std::vector<std::uint64_t> ids(hard_nodes.size());
    for (NodeId i = 0; i < hard_nodes.size(); ++i) ids[i] = g.id(hard_nodes[i]);
    hx.set_ids(std::move(ids));
  }
  const auto f1_flags = [&] {
    ScopedPhase phase(lctx, "phase1-matching");
    return maximal_matching_pr(hx, lctx);
  }();
  useful.assign(g.num_nodes(), 0);
  for (NodeId i = 0; i < hx.num_nodes(); ++i)
    useful[hard_nodes[i]] = hx.degree(i) > 0;
  std::vector<std::pair<NodeId, NodeId>> f1;
  for (EdgeId e = 0; e < hx.num_edges(); ++e) {
    if (!f1_flags[e]) continue;
    const auto [a, b] = hx.endpoints(e);
    f1.emplace_back(hard_nodes[a], hard_nodes[b]);
  }
  return f1;
}

// Phase 1, second step (Section 3.3): C_HEG, each member's request f(v)
// and its F1 edge phi(v), the hypergraph H of sub-cliques, hyperedge
// grabbing on H, and the oriented matching F2 it yields. Appends F2 to
// `f2` and lists each edge's index under its tail's hard clique rank in
// `outgoing_f2`. H and the per-node tables live only here. Returns false,
// with the certifying loopholes in out.demotions, when two members of a
// clique request the same F1 edge (Lemma 10).
bool grab_f2(Context& ctx, const std::vector<std::pair<NodeId, NodeId>>& f1,
             const NodeMask& useful, HardColoringOutcome& out,
             LocalContext& lctx, std::vector<OrientedEdge>& f2,
             std::vector<std::vector<int>>& outgoing_f2) {
  const Graph& g = ctx.g;
  const Acd& acd = ctx.acd;
  const Hardness& hardness = ctx.hardness;
  const HardColoringParams& params = ctx.params;
  HardColoringStats& st = out.stats;
  std::vector<int> f1_at(g.num_nodes(), -1);  // host vertex -> F1 edge index
  for (std::size_t e = 0; e < f1.size(); ++e)
    f1_at[f1[e].first] = f1_at[f1[e].second] = static_cast<int>(e);

  // C_HEG: hard cliques where every member has a neighbor in another hard
  // clique.
  ctx.in_heg_clique.assign(acd.cliques.size(), 0);
  for (const int c : ctx.hard_acs) {
    int useful_members = 0;
    const auto& members = acd.cliques[static_cast<std::size_t>(c)];
    for (const NodeId v : members) useful_members += useful[v];
    // Deterministic rule (Section 3.2): every member must reach another
    // hard clique. The randomized variant tolerates "useless" members
    // (Section 4) as long as enough proposals remain.
    const bool in_heg =
        params.allow_useless
            ? useful_members >= std::min<int>(4, static_cast<int>(members.size()))
            : useful_members == static_cast<int>(members.size());
    ctx.in_heg_clique[static_cast<std::size_t>(c)] = in_heg;
    if (in_heg)
      ++st.num_heg_cliques;
    else
      ++st.type2;
  }
  st.type1 = st.num_heg_cliques;

  // Sub-clique count: the paper's constant 28 presumes |C| >= 56; smaller
  // cliques scale it down so that sub-cliques keep >= 2 members (Lemma 11's
  // slack) — recorded for the ablation bench.
  int min_heg_clique = ctx.delta + 2;
  for (const int c : ctx.hard_acs)
    if (ctx.in_heg_clique[static_cast<std::size_t>(c)])
      min_heg_clique = std::min(
          min_heg_clique,
          static_cast<int>(acd.cliques[static_cast<std::size_t>(c)].size()));
  // Sub-cliques need >= 3 members so that delta_H = |Q| clears 1.1 * r_H
  // even on e_C = 1 instances where every F1 edge draws exactly two
  // proposals (mirroring the paper's 63/28 >= 2.25 > 2.2 arithmetic).
  ctx.k_eff = params.subclique_count;
  if (params.scale_for_delta)
    ctx.k_eff = std::max(
        2, std::min(params.subclique_count, min_heg_clique / 3));
  ctx.levels_eff = ctx.k_eff >= 16 ? params.split_levels : 1;

  // f(v) and phi(v) for members of C_HEG cliques (Section 3.3).
  std::vector<NodeId> f_of(g.num_nodes(), kNoNode);
  std::vector<int> phi_of(g.num_nodes(), -1);
  std::vector<int> subclique_of(g.num_nodes(), -1);
  // Lemma 10 stamps, by F1 edge: the last clique that requested the edge,
  // and the first of its members to do so.
  std::vector<int> seen_clique(f1.size(), -1);
  std::vector<NodeId> seen_node(f1.size(), kNoNode);
  for (const int c : ctx.hard_acs) {
    if (!ctx.in_heg_clique[static_cast<std::size_t>(c)]) continue;
    const auto& members = acd.cliques[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < members.size(); ++i) {
      const NodeId v = members[i];
      subclique_of[v] = static_cast<int>(i) % ctx.k_eff;
      if (!useful[v]) {
        DC_CHECK_MSG(params.allow_useless,
                     "C_HEG member without cross neighbor");
        continue;  // a useless member sends no proposal (Section 4)
      }
      if (f1_at[v] != -1) {
        f_of[v] = v;
      } else {
        NodeId best = kNoNode;
        for (const NodeId u : g.neighbors(v)) {
          if (!hardness.in_hard[u] || acd.clique_of[u] == c) continue;
          if (best == kNoNode || g.id(u) < g.id(best)) best = u;
        }
        DC_CHECK_MSG(best != kNoNode, "C_HEG member without cross neighbor");
        DC_CHECK_MSG(f1_at[best] != -1,
                     "maximality violated: unmatched cross neighbor");
        f_of[v] = best;
      }
      phi_of[v] = f1_at[f_of[v]];
    }
    // Lemma 10 (clique-level): members request distinct edges. A collision
    // certifies a 4-cycle loophole (u, f(u), f(v), v) with u the first
    // member that requested the edge — report for retry.
    for (const NodeId v : members) {
      const int e = phi_of[v];
      if (e == -1) continue;
      if (seen_clique[static_cast<std::size_t>(e)] != c) {
        seen_clique[static_cast<std::size_t>(e)] = c;
        seen_node[static_cast<std::size_t>(e)] = v;
        continue;
      }
      const NodeId u = seen_node[static_cast<std::size_t>(e)];
      Loophole witness{{u, f_of[u], f_of[v], v}};
      DC_CHECK_MSG(is_valid_loophole(g, witness),
                   "phi collision without certifying loophole");
      out.demotions.push_back(std::move(witness));
    }
  }
  if (!out.demotions.empty()) return false;

  // Hypergraph H: one vertex per sub-clique, one hyperedge per requested F1
  // edge (Section 3.3).
  Hypergraph h;
  h.num_vertices = st.num_heg_cliques * ctx.k_eff;
  std::vector<int> heg_rank_of(acd.cliques.size(), -1);
  {
    int r = 0;
    for (const int c : ctx.hard_acs)
      if (ctx.in_heg_clique[static_cast<std::size_t>(c)])
        heg_rank_of[static_cast<std::size_t>(c)] = r++;
  }
  // Proposals (sub-clique, member) per F1 edge as CSR, each edge's in
  // (clique, member) order: a counting sort of the proposing members by
  // phi.
  const auto for_each_proposer = [&](auto&& fn) {
    for (const int c : ctx.hard_acs) {
      if (!ctx.in_heg_clique[static_cast<std::size_t>(c)]) continue;
      const int sq_base = heg_rank_of[static_cast<std::size_t>(c)] * ctx.k_eff;
      for (const NodeId v : acd.cliques[static_cast<std::size_t>(c)])
        if (phi_of[v] != -1)  // a useless member sends no proposal
          fn(static_cast<std::size_t>(phi_of[v]), sq_base + subclique_of[v],
             v);
    }
  };
  std::vector<std::size_t> proposal_start(f1.size() + 1, 0);
  for_each_proposer(
      [&](std::size_t e, int, NodeId) { ++proposal_start[e + 1]; });
  for (std::size_t e = 0; e < f1.size(); ++e)
    proposal_start[e + 1] += proposal_start[e];
  std::vector<std::pair<int, NodeId>> proposals(proposal_start[f1.size()]);
  {
    std::vector<std::size_t> cursor(proposal_start.begin(),
                                    proposal_start.end() - 1);
    for_each_proposer([&](std::size_t e, int sq, NodeId v) {
      proposals[cursor[e]++] = {sq, v};
    });
  }
  // Compact away sub-cliques that sent no proposal (possible only with
  // tolerated useless members): they cannot grab and must not count as
  // HEG vertices.
  std::vector<int> compact_of(static_cast<std::size_t>(st.num_heg_cliques) *
                                  ctx.k_eff,
                              -1);
  {
    int next = 0;
    for (const auto& [sq, v] : proposals)
      if (compact_of[static_cast<std::size_t>(sq)] == -1)
        compact_of[static_cast<std::size_t>(sq)] = next++;
    h.num_vertices = next;
  }
  std::vector<int> hyperedge_f1;  // hyperedge index -> F1 edge index
  {
    std::vector<int> members;
    for (std::size_t e = 0; e < f1.size(); ++e) {
      if (proposal_start[e] == proposal_start[e + 1]) continue;
      members.clear();
      for (std::size_t i = proposal_start[e]; i < proposal_start[e + 1]; ++i)
        members.push_back(
            compact_of[static_cast<std::size_t>(proposals[i].first)]);
      std::sort(members.begin(), members.end());
      DC_CHECK_MSG(std::adjacent_find(members.begin(), members.end()) ==
                       members.end(),
                   "sub-clique proposes twice to one edge (Lemma 10)");
      h.add_edge(members);
      hyperedge_f1.push_back(static_cast<int>(e));
    }
  }
  h.build_incidence();
  st.heg_vertices = h.num_vertices;
  st.heg_hyperedges = h.num_edges();
  if (h.num_vertices > 0 && h.num_edges() > 0) {
    st.heg_min_degree = h.min_degree();
    st.heg_rank = h.rank();
    st.heg_ratio = st.heg_rank > 0 ? static_cast<double>(st.heg_min_degree) /
                                         st.heg_rank
                                   : 0.0;
    st.lemma11_ok = st.heg_min_degree > 1.1 * st.heg_rank;
  }

  if (h.num_edges() > 0) {
    const HegResult heg = [&] {
      ScopedPhase phase(lctx, "phase1-heg");
      return solve_heg(h, lctx);
    }();
    st.heg_complete = heg.complete;
    st.heg_rounds = heg.rounds;
    // F2: the grabbing sub-clique's proposer v_e re-points the edge to
    // {v_e, f(v_e)}, oriented out of the grabbing clique.
    std::vector<int> f2_at(g.num_nodes(), -1);
    for (std::size_t he = 0; he < hyperedge_f1.size(); ++he) {
      const int grabber_sq = heg.grabber[he];
      if (grabber_sq == -1) continue;
      NodeId ve = kNoNode;
      const std::size_t e = static_cast<std::size_t>(hyperedge_f1[he]);
      for (std::size_t i = proposal_start[e]; i < proposal_start[e + 1]; ++i) {
        const auto [sq, v] = proposals[i];
        if (compact_of[static_cast<std::size_t>(sq)] == grabber_sq) {
          ve = v;
          break;
        }
      }
      DC_CHECK(ve != kNoNode);
      OrientedEdge oe;
      oe.tail = ve;
      if (f_of[ve] == ve) {
        // v_e owns the F1 edge; F2 keeps it, oriented outward.
        const auto [a, b] = f1[static_cast<std::size_t>(hyperedge_f1[he])];
        oe.head = a == ve ? b : a;
      } else {
        oe.head = f_of[ve];
      }
      DC_CHECK(g.has_edge(oe.tail, oe.head));
      // Lemma 12: F2 is a matching.
      DC_CHECK_MSG(f2_at[oe.tail] == -1 && f2_at[oe.head] == -1,
                   "F2 is not a matching at edge (" << oe.tail << ","
                                                    << oe.head << ")");
      f2_at[oe.tail] = f2_at[oe.head] = static_cast<int>(f2.size());
      const int rank =
          ctx.hard_rank[static_cast<std::size_t>(acd.clique_of[oe.tail])];
      outgoing_f2[static_cast<std::size_t>(rank)].push_back(
          static_cast<int>(f2.size()));
      f2.push_back(oe);
    }
  }
  return true;
}

}  // namespace

HardColoringOutcome color_hard_cliques(const Graph& g, const Acd& acd,
                                       const Hardness& hardness,
                                       std::vector<Color>& color,
                                       const HardColoringParams& params,
                                       LocalContext& lctx) {
  HardColoringOutcome out;
  HardColoringStats& st = out.stats;
  st.num_hard = hardness.num_hard;
  if (hardness.num_hard == 0) return out;
  // Wall-clock per phase, charged under the phases' round labels.
  PhaseLaps laps(lctx.ledger());

  Context ctx{g,
              acd,
              hardness,
              params,
              params.delta_override > 0 ? params.delta_override
                                        : g.max_degree(),
              {},
              {},
              {},
              0,
              0};
  ctx.hard_rank.assign(acd.cliques.size(), -1);
  for (std::size_t c = 0; c < acd.cliques.size(); ++c) {
    if (!hardness.is_hard[c]) continue;
    ctx.hard_rank[c] = static_cast<int>(ctx.hard_acs.size());
    ctx.hard_acs.push_back(static_cast<int>(c));
  }
  for (const int c : ctx.hard_acs)
    for (const NodeId v : acd.cliques[static_cast<std::size_t>(c)])
      DC_CHECK_MSG(color[v] == kNoColor,
                   "hard vertex " << v << " pre-colored");

  // ---------------------------------------------------------------- Phase 1
  // F1, then HEG on the sub-clique hypergraph and F2. Only F2 leaves this
  // block: hx, H and Phase 1's per-node tables are freed before the later
  // phases allocate theirs.
  std::vector<NodeId> hard_nodes;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (hardness.in_hard[v]) hard_nodes.push_back(v);
  std::vector<OrientedEdge> f2;
  std::vector<std::vector<int>> outgoing_f2(ctx.hard_acs.size());
  {
    NodeMask useful;
    const auto f1 = match_hard_cliques(ctx, hard_nodes, useful, lctx);
    st.f1_edges = static_cast<int>(f1.size());
    if (params.trace != nullptr) params.trace->f1 = f1;
    laps.lap("phase1-matching");
    if (!grab_f2(ctx, f1, useful, out, lctx, f2, outgoing_f2)) {
      laps.lap("phase1-heg");
      return out;
    }
  }
  st.f2_edges = static_cast<int>(f2.size());
  if (params.trace != nullptr) {
    params.trace->f2.clear();
    for (const OrientedEdge& oe : f2)
      params.trace->f2.emplace_back(oe.tail, oe.head);
  }
  st.min_outgoing_f2 = ctx.delta + 1;
  for (const int c : ctx.hard_acs) {
    if (!ctx.in_heg_clique[static_cast<std::size_t>(c)]) continue;
    const int rank = ctx.hard_rank[static_cast<std::size_t>(c)];
    st.min_outgoing_f2 = std::min(
        st.min_outgoing_f2,
        static_cast<int>(outgoing_f2[static_cast<std::size_t>(rank)].size()));
  }
  if (st.num_heg_cliques == 0) st.min_outgoing_f2 = 0;
  laps.lap("phase1-heg");

  // ---------------------------------------------------------------- Phase 2
  // Degree splitting on the virtual multigraph G_Q (Q+ and Q- per hard
  // clique), keeping the first of 2^levels parts; then discard outgoing
  // edges beyond two per clique (Lemma 13).
  std::vector<int> chosen(f2.size(), 0);  // 1 = retained in F3
  {
    std::vector<std::pair<int, int>> gq_edges(f2.size());
    for (std::size_t k = 0; k < f2.size(); ++k) {
      const int tc =
          ctx.hard_rank[static_cast<std::size_t>(acd.clique_of[f2[k].tail])];
      const int hc =
          ctx.hard_rank[static_cast<std::size_t>(acd.clique_of[f2[k].head])];
      gq_edges[k] = {2 * tc, 2 * hc + 1};
    }
    if (!gq_edges.empty()) {
      RoundLedger split_ledger;
      LocalContext split_ctx(split_ledger, lctx.engine(), params.seed);
      const auto split = degree_split_edges(
          2 * static_cast<int>(ctx.hard_acs.size()), gq_edges,
          ctx.levels_eff, params.split_segment_length, split_ctx);
      // One virtual G_Q round costs <= 3 real rounds (clique diameter 1 +
      // crossing edge).
      lctx.charge("phase2-split", split_ledger.total(), 3);
      for (std::size_t k = 0; k < f2.size(); ++k)
        chosen[k] = split.part[k] == 0 ? 1 : 0;
    }
  }
  // Per clique: exactly two outgoing edges survive.
  std::vector<std::vector<int>> final_out(ctx.hard_acs.size());
  st.min_outgoing_f3 = 2;
  for (std::size_t r = 0; r < ctx.hard_acs.size(); ++r) {
    auto& result = final_out[r];
    for (const int k : outgoing_f2[r])
      if (chosen[static_cast<std::size_t>(k)] && result.size() < 2)
        result.push_back(k);
    if (result.size() < 2 && outgoing_f2[r].size() >= 2) {
      // Splitter fell short (possible: its guarantee is epsilon*deg + O(1)
      // and K/2^levels must clear 2); top back up from F2 — diagnosed, and
      // accounted in the incoming bound check below.
      for (const int k : outgoing_f2[r]) {
        if (result.size() >= 2) break;
        if (!chosen[static_cast<std::size_t>(k)]) result.push_back(k);
      }
      ++st.split_fallbacks;
    }
    if (ctx.in_heg_clique[static_cast<std::size_t>(ctx.hard_acs[r])])
      st.min_outgoing_f3 =
          std::min(st.min_outgoing_f3, static_cast<int>(result.size()));
  }
  // Final F3 flags + incoming counts.
  std::vector<int> incoming(ctx.hard_acs.size(), 0);
  st.f3_edges = 0;
  {
    NodeMask in_f3(f2.size(), 0);
    for (const auto& result : final_out)
      for (const int k : result) in_f3[static_cast<std::size_t>(k)] = 1;
    for (std::size_t k = 0; k < f2.size(); ++k) {
      if (!in_f3[k]) continue;
      ++st.f3_edges;
      ++incoming[static_cast<std::size_t>(ctx.hard_rank[static_cast<
          std::size_t>(acd.clique_of[f2[k].head])])];
    }
  }
  if (params.trace != nullptr) {
    params.trace->f3_of_f2.clear();
    for (const auto& result : final_out)
      for (const int k : result) params.trace->f3_of_f2.push_back(k);
  }
  st.max_incoming_f3 = 0;
  for (const int inc : incoming) st.max_incoming_f3 = std::max(st.max_incoming_f3, inc);
  st.lemma13_ok =
      st.max_incoming_f3 <
      0.5 * (ctx.delta - 2 * acd.epsilon * ctx.delta - 1) + 1e-9;
  laps.lap("phase2-split");

  // ---------------------------------------------------------------- Phase 3
  // Slack triads (Definition 14, Lemma 15).
  struct Triad {
    NodeId slack = kNoNode;  // u
    NodeId pair_in = kNoNode;   // v, inside the clique
    NodeId pair_out = kNoNode;  // w, outside
    int clique_rank = -1;
  };
  std::vector<Triad> triads;
  NodeMask used(g.num_nodes(), 0);
  NodeMask has_triad(ctx.hard_acs.size(), 0);
  for (std::size_t r = 0; r < ctx.hard_acs.size(); ++r) {
    if (final_out[r].size() < 2) continue;
    const OrientedEdge& e1 = f2[static_cast<std::size_t>(final_out[r][0])];
    const OrientedEdge& e2 = f2[static_cast<std::size_t>(final_out[r][1])];
    Triad t;
    t.slack = e1.tail;
    t.pair_out = e1.head;
    t.pair_in = e2.tail;
    t.clique_rank = static_cast<int>(r);
    DC_CHECK(t.slack != t.pair_in);
    DC_CHECK(g.has_edge(t.slack, t.pair_in));
    DC_CHECK_MSG(!g.has_edge(t.pair_in, t.pair_out),
                 "slack pair adjacent — Lemma 9.3 should have excluded this");
    for (const NodeId x : {t.slack, t.pair_in, t.pair_out}) {
      DC_CHECK_MSG(!used[x], "slack triads overlap at vertex " << x);
      used[x] = 1;
    }
    has_triad[r] = 1;
    triads.push_back(t);
  }
  st.num_triads = static_cast<int>(triads.size());
  lctx.charge("phase3-triads", 2);
  {
    std::vector<int> pairs_per_clique(ctx.hard_acs.size(), 0);
    for (const Triad& t : triads) {
      ++pairs_per_clique[static_cast<std::size_t>(t.clique_rank)];
      const int hc = ctx.hard_rank[static_cast<std::size_t>(
          acd.clique_of[t.pair_out])];
      if (hc != -1) ++pairs_per_clique[static_cast<std::size_t>(hc)];
    }
    for (const int k : pairs_per_clique)
      st.max_slack_pairs_per_clique = std::max(st.max_slack_pairs_per_clique, k);
  }
  laps.lap("phase3-triads");

  // --------------------------------------------------------------- Phase 4A
  // Virtual conflict graph G_V over slack pairs; deg+1-list coloring with
  // palette {palette_floor, .., Delta-1}; both pair members same-colored.
  std::vector<int> triad_of(g.num_nodes(), -1);
  for (std::size_t t = 0; t < triads.size(); ++t) {
    triad_of[triads[t].pair_in] = static_cast<int>(t);
    triad_of[triads[t].pair_out] = static_cast<int>(t);
  }
  NodeMask dropped(triads.size(), 0);
  // Distinct live neighbor triads of t; each call stamps the triads it
  // counts with a fresh epoch.
  std::vector<std::size_t> gv_seen(triads.size(), 0);
  std::size_t gv_epoch = 0;
  auto gv_degree = [&](std::size_t t) {
    ++gv_epoch;
    int degree = 0;
    for (const NodeId x : {triads[t].pair_in, triads[t].pair_out}) {
      for (const NodeId y : g.neighbors(x)) {
        const int o = triad_of[y];
        if (o == -1 || o == static_cast<int>(t)) continue;
        const std::size_t k = static_cast<std::size_t>(o);
        if (dropped[k] || gv_seen[k] == gv_epoch) continue;
        gv_seen[k] = gv_epoch;
        ++degree;
      }
    }
    return degree;
  };
  st.max_gv_degree = -1;
  for (std::size_t t = 0; t < triads.size(); ++t)
    st.max_gv_degree = std::max(st.max_gv_degree, gv_degree(t));
  st.lemma16_ok = st.max_gv_degree <= ctx.delta - 2;
  // Drop pairs that cannot be list-colored (only possible if Lemma 16's
  // bound failed, e.g. under non-paper parameters).
  const int palette_size = ctx.delta - params.palette_floor;
  for (bool again = true; again;) {
    again = false;
    for (std::size_t t = 0; t < triads.size(); ++t) {
      if (dropped[t]) continue;
      if (gv_degree(t) + 1 > palette_size) {
        dropped[t] = 1;
        has_triad[static_cast<std::size_t>(triads[t].clique_rank)] = 0;
        triad_of[triads[t].pair_in] = -1;
        triad_of[triads[t].pair_out] = -1;
        for (const NodeId x :
             {triads[t].slack, triads[t].pair_in, triads[t].pair_out})
          used[x] = 0;
        ++st.dropped_triads;
        again = true;
      }
    }
  }
  {
    // Materialize G_V on the surviving pairs.
    std::vector<int> gv_index(triads.size(), -1);
    std::vector<std::size_t> live;
    for (std::size_t t = 0; t < triads.size(); ++t) {
      if (dropped[t]) continue;
      gv_index[t] = static_cast<int>(live.size());
      live.push_back(t);
    }
    std::vector<std::pair<NodeId, NodeId>> gv_edges;
    for (std::size_t i = 0; i < live.size(); ++i) {
      const std::size_t t = live[i];
      for (const NodeId x : {triads[t].pair_in, triads[t].pair_out}) {
        for (const NodeId y : g.neighbors(x)) {
          const int o = triad_of[y];
          if (o == -1 || o == static_cast<int>(t)) continue;
          const int j = gv_index[static_cast<std::size_t>(o)];
          if (j > static_cast<int>(i))
            gv_edges.emplace_back(static_cast<NodeId>(i),
                                  static_cast<NodeId>(j));
        }
      }
    }
    Graph gv(static_cast<NodeId>(live.size()), std::move(gv_edges));
    std::vector<std::uint64_t> ids(live.size());
    for (std::size_t i = 0; i < live.size(); ++i)
      ids[i] = std::min(g.id(triads[live[i]].pair_in),
                        g.id(triads[live[i]].pair_out));
    gv.set_ids(std::move(ids));

    ColorLists lists;
    lists.reserve(live.size(),
                  live.size() * static_cast<std::size_t>(ctx.delta));
    PaletteSet avail(ctx.delta);
    for (std::size_t i = 0; i < live.size(); ++i) {
      // Palette minus the colors already present on real neighbors of
      // either pair member (relevant in the randomized post-shattering
      // variant where T-node pairs are pre-colored).
      avail.reset(ctx.delta);
      avail.fill();
      const std::size_t t = live[i];
      for (const NodeId x : {triads[t].pair_in, triads[t].pair_out})
        for (const NodeId y : g.neighbors(x)) avail.erase(color[y]);
      for (Color c = params.palette_floor; c < ctx.delta; ++c)
        if (avail.contains(c)) lists.push(c);
      lists.close_list();
    }
    std::vector<Color> gv_color(live.size(), kNoColor);
    NodeMask active(live.size(), 1);
    RoundLedger gv_ledger;
    if (!live.empty()) {
      LocalContext gv_ctx(gv_ledger, lctx.engine(), params.seed);
      ScopedPhase phase(gv_ctx, "phase4a-pairs");
      deg_plus_one_list_color(gv, active, lists, gv_color, gv_ctx);
    }
    lctx.charge("phase4a-pairs", gv_ledger.total(), 3);  // dilation 3
    for (std::size_t i = 0; i < live.size(); ++i) {
      const std::size_t t = live[i];
      color[triads[t].pair_in] = gv_color[i];
      color[triads[t].pair_out] = gv_color[i];
    }
  }

  if (params.trace != nullptr) {
    params.trace->triads.clear();
    for (std::size_t t = 0; t < triads.size(); ++t) {
      PipelineTrace::TriadRecord rec;
      rec.slack = triads[t].slack;
      rec.pair_in = triads[t].pair_in;
      rec.pair_out = triads[t].pair_out;
      rec.clique = ctx.hard_acs[static_cast<std::size_t>(
          triads[t].clique_rank)];
      rec.dropped = dropped[t];
      rec.pair_color = dropped[t] ? kNoColor : color[triads[t].pair_in];
      params.trace->triads.push_back(rec);
    }
  }
  laps.lap("phase4a-pairs");

  // --------------------------------------------------------------- Phase 4B
  // Two deg+1-list instances (Lemma 17).
  NodeMask second_wave(g.num_nodes(), 0);
  for (std::size_t t = 0; t < triads.size(); ++t)
    if (!dropped[t]) second_wave[triads[t].slack] = 1;
  // Cliques without a triad designate one member with a non-hard neighbor
  // (Type II: the adjacent easy clique is colored later and grants slack).
  for (std::size_t r = 0; r < ctx.hard_acs.size(); ++r) {
    if (has_triad[r]) continue;
    const auto& members =
        acd.cliques[static_cast<std::size_t>(ctx.hard_acs[r])];
    NodeId designated = kNoNode;
    for (const NodeId v : members) {
      if (color[v] != kNoColor) continue;  // pair member of a foreign triad
      for (const NodeId u : g.neighbors(v)) {
        if (!hardness.in_hard[u] && color[u] == kNoColor) {
          designated = v;
          break;
        }
      }
      if (designated != kNoNode) break;
    }
    DC_CHECK_MSG(designated != kNoNode,
                 "triadless hard clique " << ctx.hard_acs[r]
                                          << " has no easy-adjacent member");
    second_wave[designated] = 1;
  }

  ColorLists uniform_storage;
  if (params.node_lists.empty())
    uniform_storage = uniform_lists(g, ctx.delta);
  const ColorLists& full_lists =
      params.node_lists.empty() ? uniform_storage : params.node_lists;
  {
    NodeMask active(g.num_nodes(), 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      active[v] = hardness.in_hard[v] && color[v] == kNoColor &&
                  !second_wave[v];
    ScopedPhase phase(lctx, "phase4b-rest");
    deg_plus_one_list_color(g, active, full_lists, color, lctx);
  }
  {
    NodeMask active(g.num_nodes(), 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      active[v] = second_wave[v] && color[v] == kNoColor;
    ScopedPhase phase(lctx, "phase4b-rest");
    deg_plus_one_list_color(g, active, full_lists, color, lctx);
  }
  for (const NodeId v : hard_nodes)
    DC_CHECK_MSG(color[v] != kNoColor, "hard vertex " << v << " uncolored");
  laps.lap("phase4b-rest");
  return out;
}

}  // namespace deltacolor
