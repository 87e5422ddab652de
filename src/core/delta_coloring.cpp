#include "core/delta_coloring.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "core/hardness.hpp"
#include "core/loopholes.hpp"
#include "graph/checker.hpp"
#include "local/oracle.hpp"

namespace deltacolor {

std::string DeltaColoringResult::summary() const {
  std::ostringstream os;
  os << "delta=" << delta << " dense=" << dense << " valid=" << valid
     << " cliques=" << num_cliques << " (hard=" << num_hard
     << ", easy=" << num_easy << ") triads=" << hard_stats.num_triads
     << " heg_ratio=" << hard_stats.heg_ratio
     << " rounds=" << ledger.total();
  return os.str();
}

DeltaColoringOptions scaled_options(int delta) {
  DeltaColoringOptions opt;
  opt.acd.epsilon = std::max(kAcdEpsilon, 2.5 / delta);
  return opt;
}

DeltaColoringResult delta_color_dense(const Graph& g,
                                      const DeltaColoringOptions& options) {
  DeltaColoringResult res;
  res.delta = g.max_degree();
  res.color.assign(g.num_nodes(), kNoColor);
  if (g.num_nodes() == 0) {
    res.dense = res.valid = true;
    return res;
  }
  DC_CHECK_MSG(res.delta >= 3,
               "delta_color_dense requires Delta >= 3 (got " << res.delta
                                                             << ")");
  LocalContext lctx(res.ledger, options.engine, options.hard.seed);

  // Step 1: almost-clique decomposition (Lemma 2).
  const Acd acd = [&] {
    ScopedPhaseTimer timer(res.ledger, "acd");
    return compute_acd(g, res.ledger, options.acd);
  }();
  res.dense = acd.is_dense();
  res.num_cliques = acd.num_cliques();
  DC_CHECK_MSG(res.dense,
               "input graph is not dense (Definition 4): "
                   << acd.sparse.size() << " sparse vertices under epsilon="
                   << options.acd.epsilon);

  // Loophole detection and hard/easy classification (Definitions 6, 8),
  // with constructive demotion retries.
  LoopholeSet loopholes = [&] {
    ScopedPhaseTimer timer(res.ledger, "loopholes");
    return find_loopholes_dense(g, acd, res.ledger);
  }();
  for (int attempt = 0;; ++attempt) {
    const Hardness hardness = classify_hardness(g, acd, loopholes);
    res.num_hard = hardness.num_hard;
    res.num_easy = hardness.num_easy;

    std::fill(res.color.begin(), res.color.end(), kNoColor);
    // Step 2: color vertices in hard cliques (Algorithm 2).
    const HardColoringOutcome outcome = color_hard_cliques(
        g, acd, hardness, res.color, options.hard, lctx);
    res.hard_stats = outcome.stats;
    if (!outcome.retry_needed()) break;
    DC_CHECK_MSG(attempt < options.max_retries,
                 "demotion retries exceeded (" << options.max_retries << ")");
    for (const Loophole& l : outcome.demotions) loopholes.add(g, l);
    ++res.demotion_retries;
  }
  validate_partial_coloring(g, res.color, "hard-cliques", options.validate);

  // Step 3: color easy almost cliques and loopholes (Algorithm 3).
  res.easy_stats =
      color_easy_and_loopholes(g, loopholes, res.color, lctx);
  validate_partial_coloring(g, res.color, "easy", options.validate);

  res.valid = is_delta_coloring(g, res.color);
  if (options.validate != ValidateMode::kOff) {
    validate_final_coloring(g, res.color, res.valid, "final",
                            options.validate);
  } else {
    DC_CHECK_MSG(res.valid, "final coloring invalid: "
                                << check_coloring(g, res.color).describe());
  }
  return res;
}

}  // namespace deltacolor
