#include "registry/registry.hpp"

#include <algorithm>
#include <sstream>

#include "baselines/baselines.hpp"
#include "baselines/brooks.hpp"
#include "core/delta_coloring.hpp"
#include "graph/checker.hpp"
#include "local/message_passing.hpp"
#include "primitives/linial.hpp"
#include "primitives/list_coloring.hpp"
#include "primitives/maximal_matching.hpp"
#include "primitives/mis.hpp"
#include "primitives/ruling_set.hpp"
#include "randomized/randomized_coloring.hpp"

namespace deltacolor {

namespace {

AlgorithmResult run_det(const Graph& g, const AlgorithmRequest& req) {
  DeltaColoringOptions opt = scaled_options(g.max_degree());
  opt.engine = req.engine;
  opt.hard.seed = req.seed;
  opt.validate = req.validate;
  auto res = delta_color_dense(g, opt);
  AlgorithmResult out;
  out.color = std::move(res.color);
  out.ledger = std::move(res.ledger);
  out.palette = g.max_degree();
  out.ok = res.valid;
  out.summary = res.summary();
  return out;
}

AlgorithmResult run_rand(const Graph& g, const AlgorithmRequest& req) {
  RandomizedOptions opt =
      scaled_randomized_options(g.max_degree(), req.seed);
  opt.engine = req.engine;
  opt.validate = req.validate;
  auto res = randomized_delta_color(g, opt);
  AlgorithmResult out;
  out.color = std::move(res.color);
  out.ledger = std::move(res.ledger);
  out.palette = g.max_degree();
  out.ok = res.valid;
  std::ostringstream os;
  os << "valid=" << res.valid << " rounds=" << out.ledger.total()
     << " tnodes=" << res.stats.tnodes_placed
     << " components=" << res.stats.components;
  out.summary = os.str();
  return out;
}

AlgorithmResult run_brooks(const Graph& g, const AlgorithmRequest&) {
  const BrooksResult res = brooks_coloring(g);
  if (!res.success)
    throw DomainError(DomainError::Reason::kBrooksException,
                      "a K_{Delta+1} or odd-cycle component (Delta = " +
                          std::to_string(g.max_degree()) +
                          ") has no Delta-coloring");
  AlgorithmResult out;
  out.palette = g.max_degree();
  out.color = res.color;
  const ColoringReport report = check_coloring(g, out.color);
  out.ok = report.valid_for(out.palette);
  out.summary = "Brooks: " + report.describe();
  return out;
}

AlgorithmResult run_greedy(const Graph& g, const AlgorithmRequest& req) {
  AlgorithmResult out;
  LocalContext ctx(out.ledger, req.engine, req.seed);
  out.color = greedy_delta_plus_one(g, ctx);
  out.palette = g.max_degree() + 1;
  const ColoringReport report = check_coloring(g, out.color);
  out.ok = report.valid_for(out.palette);
  std::ostringstream os;
  os << "greedy (Delta+1): " << report.describe()
     << ", rounds " << out.ledger.total();
  out.summary = os.str();
  return out;
}

AlgorithmResult run_linial(const Graph& g, const AlgorithmRequest& req) {
  AlgorithmResult out;
  LocalContext ctx(out.ledger, req.engine, req.seed);
  const LinialResult res = linial_coloring(g, ctx);
  out.color = res.color;
  out.palette = res.num_colors;
  out.ok = is_proper_coloring(g, out.color, out.palette);
  std::ostringstream os;
  os << "Linial: " << res.num_colors << " colors in " << res.rounds
     << " rounds";
  out.summary = os.str();
  return out;
}

AlgorithmResult run_trial(const Graph& g, const AlgorithmRequest& req) {
  AlgorithmResult out;
  out.color = color_trial_message_passing(g, req.seed, out.ledger, "trial",
                                          req.engine);
  out.palette = g.max_degree() + 1;
  const ColoringReport report = check_coloring(g, out.color);
  out.ok = report.valid_for(out.palette);
  out.summary = "color trials (Delta+1, engine): " + report.describe();
  return out;
}

AlgorithmResult run_mis(const Graph& g, const AlgorithmRequest& req) {
  AlgorithmResult out;
  out.in_set = mis_message_passing(g, req.seed, out.ledger, "mis",
                                   req.engine);
  out.ok = is_maximal_independent_set(g, out.in_set);
  std::size_t size = 0;
  for (const bool b : out.in_set) size += b;
  std::ostringstream os;
  os << "MIS (engine): " << size << " of " << g.num_nodes() << " nodes";
  out.summary = os.str();
  return out;
}

AlgorithmResult run_mis_det(const Graph& g, const AlgorithmRequest& req) {
  AlgorithmResult out;
  LocalContext ctx(out.ledger, req.engine, req.seed);
  out.in_set = mis_deterministic(g, ctx);
  out.ok = is_maximal_independent_set(g, out.in_set);
  std::size_t size = 0;
  for (const bool b : out.in_set) size += b;
  std::ostringstream os;
  os << "deterministic MIS: " << size << " of " << g.num_nodes()
     << " nodes in " << out.ledger.total() << " rounds";
  out.summary = os.str();
  return out;
}

AlgorithmResult run_matching(const Graph& g, const AlgorithmRequest& req) {
  AlgorithmResult out;
  LocalContext ctx(out.ledger, req.engine, req.seed);
  out.in_set = maximal_matching_pr(g, ctx);
  out.set_on_edges = true;
  out.ok = is_matching(g, out.in_set) && is_maximal_matching(g, out.in_set);
  std::size_t size = 0;
  for (const bool b : out.in_set) size += b;
  std::ostringstream os;
  os << "maximal matching: " << size << " edges in " << out.ledger.total()
     << " rounds";
  out.summary = os.str();
  return out;
}

AlgorithmResult run_ruling(const Graph& g, const AlgorithmRequest& req) {
  AlgorithmResult out;
  LocalContext ctx(out.ledger, req.engine, req.seed);
  const RulingSetResult res = ruling_set(g, ctx);
  out.in_set = res.in_set;
  out.ok = is_independent_set(g, out.in_set);
  std::size_t size = 0;
  for (const bool b : out.in_set) size += b;
  std::ostringstream os;
  os << "ruling set: " << size << " nodes, domination radius "
     << res.domination_radius << ", " << out.ledger.total() << " rounds";
  out.summary = os.str();
  return out;
}

constexpr AlgorithmEntry kRegistry[] = {
    {"det", "deterministic Delta-coloring of dense graphs (Theorem 1)",
     run_det},
    {"rand", "randomized Delta-coloring via shattering (Theorem 2)",
     run_rand},
    {"brooks", "centralized Brooks' theorem ground truth", run_brooks},
    {"greedy", "distributed greedy (Delta+1)-coloring (deg+1-list)",
     run_greedy},
    {"linial", "Linial's O(log* n) coloring with O(Delta^2) colors",
     run_linial},
    {"trial", "randomized (Delta+1) color trials (engine demo)", run_trial},
    {"mis", "Luby's MIS (engine demo)", run_mis},
    {"mis-det", "deterministic MIS via schedule coloring", run_mis_det},
    {"matching", "deterministic maximal matching (Panconesi-Rizzi)",
     run_matching},
    {"ruling", "(2, O(log Delta)) ruling set via bit peeling", run_ruling},
};

std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
    }
  }
  return row[b.size()];
}

}  // namespace

std::span<const AlgorithmEntry> algorithm_registry() { return kRegistry; }

const AlgorithmEntry* find_algorithm(std::string_view name) {
  for (const AlgorithmEntry& e : kRegistry)
    if (e.name == name) return &e;
  return nullptr;
}

std::vector<std::string_view> suggest_algorithms(std::string_view name,
                                                 std::size_t max_results) {
  std::vector<std::string_view> names;
  for (const AlgorithmEntry& e : kRegistry) names.push_back(e.name);
  return suggest_names(name, names, max_results);
}

std::vector<std::string_view> suggest_names(
    std::string_view name, std::span<const std::string_view> candidates,
    std::size_t max_results) {
  std::vector<std::pair<std::size_t, std::string_view>> scored;
  for (const std::string_view c : candidates)
    scored.emplace_back(edit_distance(name, c), c);
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& x, const auto& y) {
                     return x.first < y.first;
                   });
  std::vector<std::string_view> out;
  for (const auto& [dist, n] : scored) {
    if (out.size() >= max_results) break;
    // Only suggest names within a plausible typo distance.
    if (dist > std::max<std::size_t>(3, name.size() / 2)) break;
    out.push_back(n);
  }
  return out;
}

}  // namespace deltacolor
