#include "local/message_passing.hpp"

#include "common/check.hpp"
#include "common/palette.hpp"
#include "common/rng.hpp"
#include "local/sync_runner.hpp"

namespace deltacolor {

namespace {

enum class MisStatus : std::uint8_t { kUndecided, kCandidate, kIn, kOut };

struct MisState {
  MisStatus status = MisStatus::kUndecided;
  std::uint64_t draw = 0;

  bool operator==(const MisState&) const = default;
};

}  // namespace

std::vector<bool> mis_message_passing(const Graph& g, std::uint64_t seed,
                                      RoundLedger& ledger,
                                      const std::string& phase,
                                      const EngineOptions& engine) {
  const NodeId n = g.num_nodes();
  SyncRunner<MisState> runner(g, std::vector<MisState>(n), engine);
  const int max_rounds = 128 * (32 - __builtin_clz(n + 2));

  const auto step = [seed, &g](const SyncRunner<MisState>::View& view) {
    MisState s = view.self();
    if (s.status == MisStatus::kIn || s.status == MisStatus::kOut) return s;
    if (view.round() % 2 == 0) {
      // Draw phase: publish a fresh random value and become a candidate.
      s.draw = hash_mix(seed, view.id(),
                        static_cast<std::uint64_t>(view.round())) |
               1;
      s.status = MisStatus::kCandidate;
      return s;
    }
    // Resolution phase: join if the own draw is the strict local maximum
    // among undecided neighbors; drop out if a neighbor joined earlier.
    bool is_max = true;
    for (const NodeId u : view.neighbors()) {
      const MisState& nb = view.neighbor(u);
      if (nb.status == MisStatus::kIn) {
        s.status = MisStatus::kOut;
        return s;
      }
      if (nb.status != MisStatus::kCandidate) continue;
      if (nb.draw > s.draw || (nb.draw == s.draw && g.id(u) > view.id()))
        is_max = false;
    }
    if (is_max) {
      s.status = MisStatus::kIn;
    } else {
      s.status = MisStatus::kUndecided;
    }
    return s;
  };
  // A candidate may still need its resolution round, so halting requires
  // every node In or Out.
  const auto done_node = [](NodeId, const MisState& s) {
    return s.status == MisStatus::kIn || s.status == MisStatus::kOut;
  };
  // One extra sweep after the last join lets neighbors observe it.
  int rounds;
  {
    ScopedPhaseTimer timer(ledger, phase);
    rounds = runner.run_until(max_rounds, step, done_node);
  }
  // Post-pass: neighbors of IN nodes that were still undecided at halt.
  std::vector<bool> in_set(n, false);
  for (NodeId v = 0; v < n; ++v)
    in_set[v] = runner.states()[v].status == MisStatus::kIn;
  DC_CHECK_MSG(rounds < max_rounds, "mis_message_passing did not converge");
  ledger.charge(phase, rounds);
  return in_set;
}

namespace {

struct TrialState {
  Color color = kNoColor;   // committed color
  Color trial = kNoColor;   // this round's attempt

  bool operator==(const TrialState&) const = default;
};

}  // namespace

std::vector<Color> color_trial_message_passing(const Graph& g,
                                               std::uint64_t seed,
                                               RoundLedger& ledger,
                                               const std::string& phase,
                                               const EngineOptions& engine) {
  const NodeId n = g.num_nodes();
  const int palette = g.max_degree() + 1;
  SyncRunner<TrialState> runner(g, std::vector<TrialState>(n), engine);
  const int max_rounds = 128 * (32 - __builtin_clz(n + 2));

  const auto step = [seed,
                     palette](const SyncRunner<TrialState>::View& view) {
    TrialState s = view.self();
    if (s.color != kNoColor) return s;
    if (view.round() % 2 == 0) {
      // Trial phase: sample uniformly among the colors unused by committed
      // neighbors. For palettes up to 64 (Delta <= 63) the free set lives
      // in one 64-bit mask — no allocation in the hot path; the k-th set
      // bit enumerates free colors in the same ascending order as the
      // vector fallback, so both paths draw identical trials.
      const std::uint64_t draw = hash_mix(
          seed, view.id(), static_cast<std::uint64_t>(view.round()));
      if (palette <= 64) {
        std::uint64_t used = 0;
        for (const NodeId u : view.neighbors()) {
          const Color cu = view.neighbor(u).color;
          if (cu != kNoColor) used |= std::uint64_t{1} << cu;
        }
        const std::uint64_t all =
            palette == 64 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << palette) - 1;
        std::uint64_t free_mask = all & ~used;
        DC_CHECK(free_mask != 0);
        int k = static_cast<int>(
            draw % static_cast<std::uint64_t>(
                       __builtin_popcountll(free_mask)));
        while (k-- > 0) free_mask &= free_mask - 1;  // drop k lowest bits
        s.trial = static_cast<Color>(__builtin_ctzll(free_mask));
        return s;
      }
      // Wide palettes (Delta >= 64): the same mask dance on a multi-word
      // PaletteSet. sample_free enumerates set bits ascending — the same
      // order the old materialized free-vector had — so the drawn trial is
      // bit-identical, without the per-step heap allocations.
      thread_local PaletteSet free_set;
      free_set.reset(palette);
      free_set.fill();
      for (const NodeId u : view.neighbors()) {
        const Color cu = view.neighbor(u).color;
        if (cu != kNoColor) free_set.erase(cu);
      }
      s.trial = free_set.sample_free(draw);  // checked non-empty inside
      return s;
    }
    // Commit phase: keep the trial unless a neighbor tried or holds it.
    bool clash = false;
    for (const NodeId u : view.neighbors()) {
      const TrialState& nb = view.neighbor(u);
      if (nb.trial == s.trial || nb.color == s.trial) clash = true;
    }
    if (!clash) s.color = s.trial;
    s.trial = kNoColor;
    return s;
  };
  const auto done_node = [](NodeId, const TrialState& s) {
    return s.color != kNoColor;
  };
  int rounds;
  {
    ScopedPhaseTimer timer(ledger, phase);
    rounds = runner.run_until(max_rounds, step, done_node);
  }
  DC_CHECK_MSG(rounds < max_rounds,
               "color_trial_message_passing did not converge");
  std::vector<Color> color(n);
  for (NodeId v = 0; v < n; ++v) color[v] = runner.states()[v].color;
  ledger.charge(phase, rounds);
  return color;
}

}  // namespace deltacolor
