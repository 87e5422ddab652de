#include "randomized/randomized_coloring.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/easy_coloring.hpp"
#include "core/hardness.hpp"
#include "core/loopholes.hpp"
#include "graph/checker.hpp"
#include "graph/subgraph.hpp"
#include "local/oracle.hpp"
#include "primitives/list_coloring.hpp"
#include "randomized/tnode_placement.hpp"

namespace deltacolor {

RandomizedOptions scaled_randomized_options(int delta, std::uint64_t seed) {
  RandomizedOptions opt;
  opt.acd.epsilon = std::max(kAcdEpsilon, 2.5 / delta);
  opt.hard.epsilon = opt.acd.epsilon;
  opt.seed = seed;
  return opt;
}

RandomizedResult randomized_delta_color(const Graph& g,
                                        const RandomizedOptions& options) {
  RandomizedResult res;
  res.delta = g.max_degree();
  res.color.assign(g.num_nodes(), kNoColor);
  if (g.num_nodes() == 0) {
    res.dense = res.valid = true;
    return res;
  }
  DC_CHECK_MSG(res.delta >= 3, "randomized_delta_color requires Delta >= 3");
  const int delta = res.delta;
  LocalContext lctx(res.ledger, options.engine, options.seed);

  // Algorithm 4 line 1 guard: Delta = omega(log^21 n) would delegate to
  // the O(log* n) algorithm of [FHM23]; at any simulable scale the branch
  // never fires (log2(n)^21 is astronomical), so it is detected only.
  res.stats.fhm23_branch =
      std::pow(std::log2(std::max<double>(4.0, g.num_nodes())), 21.0) <
      static_cast<double>(delta);

  const Acd acd = [&] {
    ScopedPhaseTimer timer(res.ledger, "acd");
    return compute_acd(g, res.ledger, options.acd);
  }();
  res.dense = acd.is_dense();
  DC_CHECK_MSG(res.dense, "input graph is not dense (Definition 4)");
  LoopholeSet loopholes = [&] {
    ScopedPhaseTimer timer(res.ledger, "loopholes");
    return find_loopholes_dense(g, acd, res.ledger);
  }();
  const Hardness hardness = classify_hardness(g, acd, loopholes);
  res.stats.num_hard = hardness.num_hard;
  res.stats.num_easy = hardness.num_easy;

  std::vector<int> hard_acs;
  for (std::size_t c = 0; c < acd.cliques.size(); ++c)
    if (hardness.is_hard[c]) hard_acs.push_back(static_cast<int>(c));

  // ------------------------------------------------------ Pre-shattering
  // Randomized T-node placement with O(log Delta) retry rounds; accepted
  // pairs are colored kTnodeColor, and future *pair* vertices keep
  // distance `spacing` from accepted pairs (the paper's b, limiting
  // useless vertices per clique). Blocking whole balls around all three
  // triad vertices would forbid neighboring cliques entirely.
  PhaseLaps laps(res.ledger);
  std::vector<TnodeTriad> triad_of_clique;
  NodeMask placed;
  {
    Rng rng(options.seed);
    TnodePlacement placement =
        place_tnodes(g, acd, loopholes, hard_acs, options.placement_rounds,
                     options.spacing, options.seed, rng, res.color);
    triad_of_clique = std::move(placement.triad_of_clique);
    placed = std::move(placement.placed);
  }
  for (int round = 0; round < options.placement_rounds; ++round)
    lctx.charge("rand-preshattering", 2 * options.spacing + 3);
  laps.lap("rand-preshattering");
  validate_partial_coloring(g, res.color, "rand-preshattering",
                            options.validate);
  for (const int c : hard_acs)
    if (placed[static_cast<std::size_t>(c)]) ++res.stats.tnodes_placed;
  res.stats.failed_cliques =
      static_cast<int>(hard_acs.size()) - res.stats.tnodes_placed;

  // ------------------------------------------------- Layering (coverage)
  // Constant-depth BFS balls around the slack vertices, through uncolored
  // hard vertices: everything covered is colored in post-processing
  // (outer layer first, slack vertex last). Vertices covered by no ball
  // form the shattered components.
  std::vector<int> layer(g.num_nodes(), -1);
  {
    std::queue<NodeId> q;
    for (const int c : hard_acs) {
      if (!placed[static_cast<std::size_t>(c)]) continue;
      const NodeId u = triad_of_clique[static_cast<std::size_t>(c)].slack;
      layer[u] = 0;
      q.push(u);
    }
    while (!q.empty()) {
      const NodeId x = q.front();
      q.pop();
      if (layer[x] >= options.layer_depth) continue;
      for (const NodeId y : g.neighbors(x)) {
        if (layer[y] != -1 || res.color[y] != kNoColor ||
            !hardness.in_hard[y])
          continue;
        layer[y] = layer[x] + 1;
        q.push(y);
      }
    }
    lctx.charge("rand-layering", options.layer_depth + 1);
    laps.lap("rand-layering");
  }

  // ----------------------------------------------------- Post-shattering
  // Vertex-level components of the uncovered, uncolored hard vertices,
  // each colored by the modified deterministic pipeline. Components are
  // independent, so the (parallel) round cost is the maximum.
  {
    std::vector<int> comp_of(g.num_nodes(), -1);
    int num_comp = 0;
    std::vector<std::vector<NodeId>> comp_nodes_list;
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      if (comp_of[s] != -1 || !hardness.in_hard[s] ||
          res.color[s] != kNoColor || layer[s] != -1)
        continue;
      comp_nodes_list.emplace_back();
      std::queue<NodeId> q;
      comp_of[s] = num_comp;
      q.push(s);
      while (!q.empty()) {
        const NodeId x = q.front();
        q.pop();
        comp_nodes_list.back().push_back(x);
        for (const NodeId y : g.neighbors(x)) {
          if (comp_of[y] != -1 || !hardness.in_hard[y] ||
              res.color[y] != kNoColor || layer[y] != -1)
            continue;
          comp_of[y] = num_comp;
          q.push(y);
        }
      }
      ++num_comp;
    }
    res.stats.components = num_comp;

    std::int64_t max_comp_rounds = 0;
    for (int k = 0; k < num_comp; ++k) {
      RoundLedger comp_ledger;
      const std::vector<NodeId>& nodes =
          comp_nodes_list[static_cast<std::size_t>(k)];
      // Deliberate materialization (not a lazy view): each shattered
      // component — size poly(Delta) * log n by the shattering lemma —
      // hosts a full nested pipeline (component ACD, Algorithm 2, BFS
      // layering) that needs a first-class Graph with its own id space.
      const Subgraph sub = induced_subgraph(g, nodes);
      const NodeId nn = sub.graph.num_nodes();
      res.stats.max_component_vertices = std::max(
          res.stats.max_component_vertices, static_cast<int>(nn));

      // Pseudo-loopholes: slack through an uncolored outside neighbor or
      // two same-colored neighbors (T-node pairs seen twice).
      NodeMask pseudo(nn, 0);
      for (NodeId i = 0; i < nn; ++i) {
        const NodeId v = sub.orig_of[i];
        int tnode_nbrs = 0;
        for (const NodeId y : g.neighbors(v)) {
          if (sub.sub_of[y] != kNoNode) continue;
          if (res.color[y] == kNoColor)
            pseudo[i] = 1;
          else if (res.color[y] == kTnodeColor)
            ++tnode_nbrs;
        }
        if (tnode_nbrs >= 2) pseudo[i] = 1;
      }

      // Component-local ACD: group the component's vertices by their
      // global almost clique.
      Acd acd_c;
      acd_c.epsilon = options.acd.epsilon;
      acd_c.clique_of.assign(nn, -1);
      {
        std::map<int, int> local_index;  // global AC -> local AC
        for (NodeId i = 0; i < nn; ++i) {
          const int c = acd.clique_of[sub.orig_of[i]];
          DC_CHECK(c != -1);
          const auto [it, inserted] =
              local_index.try_emplace(c, static_cast<int>(acd_c.cliques.size()));
          if (inserted) acd_c.cliques.emplace_back();
          acd_c.clique_of[i] = it->second;
          acd_c.cliques[static_cast<std::size_t>(it->second)].push_back(i);
        }
      }
      Hardness hard_c;
      hard_c.is_hard.assign(acd_c.cliques.size(), true);
      hard_c.in_hard.assign(nn, false);
      for (NodeId i = 0; i < nn; ++i)
        if (pseudo[i] && acd_c.clique_of[i] != -1)
          hard_c.is_hard[static_cast<std::size_t>(acd_c.clique_of[i])] = false;
      for (NodeId i = 0; i < nn; ++i) {
        const int c = acd_c.clique_of[i];
        if (c != -1 && hard_c.is_hard[static_cast<std::size_t>(c)])
          hard_c.in_hard[i] = true;
      }
      for (const bool ishard : hard_c.is_hard)
        ishard ? ++hard_c.num_hard : ++hard_c.num_easy;

      // Per-node lists: the full palette minus colors of outside
      // neighbors (only kTnodeColor can be present at this stage). Built
      // directly into flat CSR storage.
      ColorLists lists;
      lists.reserve(nn, static_cast<std::size_t>(nn) *
                            static_cast<std::size_t>(delta));
      PaletteSet avail(delta);
      for (NodeId i = 0; i < nn; ++i) {
        avail.reset(delta);
        avail.fill();
        for (const NodeId y : g.neighbors(sub.orig_of[i]))
          if (sub.sub_of[y] == kNoNode) avail.erase(res.color[y]);
        avail.for_each([&](Color c) { lists.push(c); });
        lists.close_list();
      }

      std::vector<Color> comp_color(nn, kNoColor);
      HardColoringParams hp = options.hard;
      hp.palette_floor = 1;  // pair color space {1..Delta-1} (Section 4)
      hp.delta_override = delta;
      hp.allow_useless = true;
      hp.node_lists = lists;
      hp.seed = hash_mix(options.seed, 77, k);
      LocalContext comp_ctx(comp_ledger, options.engine, hp.seed);
      const HardColoringOutcome outcome = color_hard_cliques(
          sub.graph, acd_c, hard_c, comp_color, hp, comp_ctx);
      DC_CHECK_MSG(outcome.demotions.empty(),
                   "unexpected demotion inside a shattered component");

      // Easy-in-component: BFS layering from pseudo-loopholes through the
      // still-uncolored component vertices, colored outside-in, then the
      // pseudo-loophole vertices themselves (their slack lives outside).
      {
        std::vector<int> layer(nn, -1);
        std::queue<NodeId> q;
        for (NodeId i = 0; i < nn; ++i) {
          if (pseudo[i] && comp_color[i] == kNoColor) {
            layer[i] = 0;
            q.push(i);
          }
        }
        int max_layer = 0;
        while (!q.empty()) {
          const NodeId x = q.front();
          q.pop();
          for (const NodeId y : sub.graph.neighbors(x)) {
            if (layer[y] != -1 || comp_color[y] != kNoColor) continue;
            layer[y] = layer[x] + 1;
            max_layer = std::max(max_layer, layer[y]);
            q.push(y);
          }
        }
        for (NodeId i = 0; i < nn; ++i)
          DC_CHECK_MSG(comp_color[i] != kNoColor || layer[i] != -1,
                       "component vertex unreachable from any slack source");
        for (int l = max_layer; l >= 0; --l) {
          NodeMask active(nn, 0);
          for (NodeId i = 0; i < nn; ++i)
            active[i] = layer[i] == l && comp_color[i] == kNoColor;
          ScopedPhase phase(comp_ctx, "rand-component-layers");
          deg_plus_one_list_color(sub.graph, active, lists, comp_color,
                                  comp_ctx);
        }
      }
      for (NodeId i = 0; i < nn; ++i) {
        DC_CHECK(comp_color[i] != kNoColor);
        res.color[sub.orig_of[i]] = comp_color[i];
      }
      max_comp_rounds = std::max(max_comp_rounds, comp_ledger.total());
    }
    res.stats.max_component_rounds = static_cast<int>(max_comp_rounds);
    lctx.charge("rand-postshattering", max_comp_rounds);
    laps.lap("rand-postshattering");
    validate_partial_coloring(g, res.color, "rand-postshattering",
                              options.validate);
  }

  // ------------------------------------------------------ Post-processing
  // The covered region, outer layer first (each layer-i vertex keeps its
  // uncolored layer-(i-1) neighbor as slack), slack vertices last (their
  // same-colored pair grants permanent slack); then easy cliques and
  // loopholes (Algorithm 3).
  const auto full_lists = uniform_lists(g, delta);
  for (int l = options.layer_depth; l >= 1; --l) {
    NodeMask active(g.num_nodes(), 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      active[v] = layer[v] == l && res.color[v] == kNoColor;
    ScopedPhase phase(lctx, "rand-postprocessing");
    deg_plus_one_list_color(g, active, full_lists, res.color, lctx);
  }
  {
    NodeMask active(g.num_nodes(), 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      active[v] = layer[v] == 0 && res.color[v] == kNoColor;
    ScopedPhase phase(lctx, "rand-postprocessing");
    deg_plus_one_list_color(g, active, full_lists, res.color, lctx);
  }
  laps.lap("rand-postprocessing");
  validate_partial_coloring(g, res.color, "rand-postprocessing",
                            options.validate);
  {
    // The easy layer times its own sub-phases; here it is one "rand-easy"
    // stretch, so only its rounds are carried over.
    RoundLedger easy_ledger;
    LocalContext easy_ctx(easy_ledger, options.engine, options.seed);
    color_easy_and_loopholes(g, loopholes, res.color, easy_ctx, "rand-easy");
    for (const auto& [phase, rounds] : easy_ledger.phases())
      lctx.charge(phase, rounds);
  }
  laps.lap("rand-easy");
  validate_partial_coloring(g, res.color, "rand-easy", options.validate);

  if (options.verify || options.validate != ValidateMode::kOff) {
    if (options.validate != ValidateMode::kOff && FaultInjector::armed())
      FaultInjector::global().maybe_corrupt_coloring("final", g, res.color);
    res.valid = is_delta_coloring(g, res.color);
    if (options.validate != ValidateMode::kOff) {
      validate_final_coloring(g, res.color, res.valid, "final",
                              options.validate);
    } else {
      DC_CHECK_MSG(res.valid, "randomized coloring invalid: "
                                  << check_coloring(g, res.color).describe());
    }
  }
  return res;
}

}  // namespace deltacolor
