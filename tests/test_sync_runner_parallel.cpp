// Tests for the parallel execution engine:
//  (a) states bit-identical across worker counts {1, 2, 8} and equal to an
//      independent serial reference of the pre-change engine semantics, on
//      Luby MIS and color-trial workloads;
//  (b) sparse activation (run_sparse_until) reaches the same states in the
//      same number of rounds as full sweeps (run_until), on an odd cycle, a
//      clique blow-up and a wave whose changed set narrows, widens and
//      narrows again;
//  (c) RoundLedger wall-clock totals are monotone and merge per phase;
//  (d) keyed sparse rounds (run_keyed) equal run_rounds for schedule-driven
//      steps, and the keyed primitives (KW reduction, the deg+1 class
//      sweep) are bit-identical across worker counts.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>

#include "bench_support/workloads.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "graph/graph_view.hpp"
#include "local/context.hpp"
#include "local/message_passing.hpp"
#include "local/sync_runner.hpp"
#include "primitives/color_reduction.hpp"
#include "primitives/list_coloring.hpp"

namespace deltacolor {
namespace {

std::vector<Graph> family() {
  std::vector<Graph> gs;
  gs.push_back(cycle_graph(31));  // odd cycle
  gs.push_back(random_regular(200, 5, 3));
  gs.push_back(random_graph(150, 0.06, 4));
  gs.push_back(bench::hard_instance(16, 12, 8).graph);
  return gs;
}

// ---------------------------------------------------------------------------
// Independent references for the pre-change serial engine semantics: plain
// double-buffered sweeps with a per-node round counter, transcribed from the
// original message_passing.cpp. The engine must reproduce these bit-exactly.

std::vector<bool> reference_mis(const Graph& g, std::uint64_t seed) {
  const NodeId n = g.num_nodes();
  enum class St : std::uint8_t { kUndecided, kCandidate, kIn, kOut };
  struct S {
    St status = St::kUndecided;
    std::uint64_t draw = 0;
  };
  std::vector<S> cur(n), nxt(n);
  const int max_rounds = 128 * (32 - __builtin_clz(n + 2));
  auto done = [&] {
    for (const S& s : cur)
      if (s.status == St::kUndecided || s.status == St::kCandidate)
        return false;
    return true;
  };
  int round = 0;
  for (; round < max_rounds && !done(); ++round) {
    for (NodeId v = 0; v < n; ++v) {
      S s = cur[v];
      if (s.status == St::kIn || s.status == St::kOut) {
        nxt[v] = s;
        continue;
      }
      if (round % 2 == 0) {
        s.draw = hash_mix(seed, g.id(v),
                          static_cast<std::uint64_t>(round)) |
                 1;
        s.status = St::kCandidate;
        nxt[v] = s;
        continue;
      }
      bool is_max = true;
      bool out = false;
      for (const NodeId u : g.neighbors(v)) {
        const S& nb = cur[u];
        if (nb.status == St::kIn) {
          out = true;
          break;
        }
        if (nb.status != St::kCandidate) continue;
        if (nb.draw > s.draw || (nb.draw == s.draw && g.id(u) > g.id(v)))
          is_max = false;
      }
      s.status = out ? St::kOut : (is_max ? St::kIn : St::kUndecided);
      nxt[v] = s;
    }
    cur.swap(nxt);
  }
  std::vector<bool> in_set(n, false);
  for (NodeId v = 0; v < n; ++v) in_set[v] = cur[v].status == St::kIn;
  return in_set;
}

std::vector<Color> reference_color_trial(const Graph& g,
                                         std::uint64_t seed) {
  const NodeId n = g.num_nodes();
  const int palette = g.max_degree() + 1;
  struct S {
    Color color = kNoColor;
    Color trial = kNoColor;
  };
  std::vector<S> cur(n), nxt(n);
  const int max_rounds = 128 * (32 - __builtin_clz(n + 2));
  auto done = [&] {
    for (const S& s : cur)
      if (s.color == kNoColor) return false;
    return true;
  };
  int round = 0;
  for (; round < max_rounds && !done(); ++round) {
    for (NodeId v = 0; v < n; ++v) {
      S s = cur[v];
      if (s.color != kNoColor) {
        nxt[v] = s;
        continue;
      }
      if (round % 2 == 0) {
        std::vector<bool> used(static_cast<std::size_t>(palette), false);
        for (const NodeId u : g.neighbors(v))
          if (cur[u].color != kNoColor)
            used[static_cast<std::size_t>(cur[u].color)] = true;
        std::vector<Color> free;
        for (Color c = 0; c < palette; ++c)
          if (!used[static_cast<std::size_t>(c)]) free.push_back(c);
        s.trial = free[hash_mix(seed, g.id(v),
                                static_cast<std::uint64_t>(round)) %
                       free.size()];
        nxt[v] = s;
        continue;
      }
      bool clash = false;
      for (const NodeId u : g.neighbors(v))
        if (cur[u].trial == s.trial || cur[u].color == s.trial) clash = true;
      if (!clash) s.color = s.trial;
      s.trial = kNoColor;
      nxt[v] = s;
    }
    cur.swap(nxt);
  }
  std::vector<Color> color(n);
  for (NodeId v = 0; v < n; ++v) color[v] = cur[v].color;
  return color;
}

// ---------------------------------------------------------------------------

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.num_workers(), 8);
  for (const std::size_t size : {0u, 1u, 7u, 8u, 1000u}) {
    std::vector<int> hits(size, 0);
    pool.for_range(0, size, [&](int, std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) ++hits[i];
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0u), size);
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, SequentialJobsReuseWorkers) {
  ThreadPool pool(4);
  std::size_t total = 0;
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::size_t> per_worker(4, 0);
    pool.for_range(0, 997, [&](int w, std::size_t b, std::size_t e) {
      per_worker[static_cast<std::size_t>(w)] = e - b;
    });
    total += std::accumulate(per_worker.begin(), per_worker.end(),
                             std::size_t{0});
  }
  EXPECT_EQ(total, 50u * 997u);
}

TEST(SyncRunnerParallel, MisBitIdenticalAcrossWorkersAndReference) {
  for (const Graph& g : family()) {
    const auto expected = reference_mis(g, 55);
    for (const int workers : {1, 2, 8}) {
      RoundLedger ledger;
      const auto got =
          mis_message_passing(g, 55, ledger, "mis-mp", EngineOptions{workers});
      EXPECT_EQ(got, expected)
          << "n=" << g.num_nodes() << " workers=" << workers;
      EXPECT_TRUE(is_maximal_independent_set(g, got));
    }
  }
}

TEST(SyncRunnerParallel, ColorTrialBitIdenticalAcrossWorkersAndReference) {
  std::vector<Graph> graphs = family();
  // Delta = 512: the trial sampler's palette spans nine words.
  graphs.push_back(clique_ring(3, 512, 1).graph);
  for (const Graph& g : graphs) {
    const auto expected = reference_color_trial(g, 77);
    for (const int workers : {1, 2, 8}) {
      RoundLedger ledger;
      const auto got = color_trial_message_passing(g, 77, ledger, "trial",
                                                   EngineOptions{workers});
      EXPECT_EQ(got, expected)
          << "n=" << g.num_nodes() << " workers=" << workers;
      EXPECT_TRUE(is_proper_coloring(g, got, g.max_degree() + 1));
    }
  }
}

TEST(SyncRunnerParallel, GenericStateBitIdenticalAcrossSchedules) {
  // A round-dependent, neighbor-dependent transition on a custom state:
  // every worker count must produce the same trajectory because writes are
  // confined to the shadow buffer.
  struct S {
    std::uint64_t acc = 0;
    bool frozen = false;
    bool operator==(const S&) const = default;
  };
  const Graph g = random_regular(300, 6, 11);
  auto step = [&](const SyncRunner<S>::View& view) {
    S s = view.self();
    if (s.frozen) return s;
    std::uint64_t mix = hash_mix(9, view.id(),
                                 static_cast<std::uint64_t>(view.round()));
    for (const NodeId u : view.neighbors()) mix ^= view.neighbor(u).acc;
    s.acc = splitmix64(mix);
    if (s.acc % 5 == 0) s.frozen = true;
    return s;
  };
  SyncRunner<S> serial(g, std::vector<S>(300), EngineOptions{1});
  serial.run_rounds(40, step);
  for (const int workers : {2, 8}) {
    SyncRunner<S> par(g, std::vector<S>(300), EngineOptions{workers});
    par.run_rounds(40, step);
    ASSERT_EQ(par.states().size(), serial.states().size());
    for (NodeId v = 0; v < 300; ++v)
      EXPECT_EQ(par.states()[v], serial.states()[v])
          << "workers=" << workers << " node=" << v;
  }
}

// ---------------------------------------------------------------------------
// Sparse activation.

/// Color trials as a bare SyncRunner protocol: undecided nodes change state
/// every round and committed ones are fixpoints, which is
/// run_sparse_until's soundness contract.
struct Trial {
  Color color = kNoColor;
  Color trial = kNoColor;
  bool operator==(const Trial&) const = default;
};

auto trial_step(std::uint64_t seed, int palette) {
  return [seed, palette](const SyncRunner<Trial>::View& view) {
    Trial s = view.self();
    if (s.color != kNoColor) return s;
    if (view.round() % 2 == 0) {
      std::uint64_t used = 0;
      for (const NodeId u : view.neighbors())
        if (view.neighbor(u).color != kNoColor)
          used |= std::uint64_t{1} << view.neighbor(u).color;
      std::vector<Color> free;
      for (Color c = 0; c < palette; ++c)
        if (((used >> c) & 1) == 0) free.push_back(c);
      s.trial = free[hash_mix(seed, view.id(),
                              static_cast<std::uint64_t>(view.round())) %
                     free.size()];
      return s;
    }
    bool clash = false;
    for (const NodeId u : view.neighbors())
      clash = clash || view.neighbor(u).trial == s.trial ||
              view.neighbor(u).color == s.trial;
    if (!clash) s.color = s.trial;
    s.trial = kNoColor;
    return s;
  };
}

/// Runs `step` from `init` for at most `max_rounds` with full sweeps (one
/// worker) and with sparse activation at workers {1, 2, 8}: every sparse
/// run must reach the same states in the same number of rounds. Returns
/// the rounds of the full run.
template <typename State, typename StepFn, typename DoneFn>
int expect_sparse_matches_full(const Graph& g, const std::vector<State>& init,
                               int max_rounds, const StepFn& step,
                               const DoneFn& done) {
  SyncRunner<State> full(g, init, EngineOptions{1});
  const int full_rounds = full.run_until(max_rounds, step, done);
  for (const int workers : {1, 2, 8}) {
    SyncRunner<State> sparse(g, init, EngineOptions{workers});
    EXPECT_EQ(sparse.run_sparse_until(max_rounds, step, done), full_rounds)
        << "workers=" << workers;
    EXPECT_EQ(sparse.states(), full.states()) << "workers=" << workers;
  }
  return full_rounds;
}

void expect_trials_sparse_match_full(const Graph& g, std::uint64_t seed) {
  ASSERT_LE(g.max_degree(), 63);
  const auto done = [](NodeId, const Trial& s) { return s.color != kNoColor; };
  EXPECT_LT(expect_sparse_matches_full(g, std::vector<Trial>(g.num_nodes()),
                                       1000,
                                       trial_step(seed, g.max_degree() + 1),
                                       done),
            1000);
}

TEST(SyncRunnerSparse, SameFixpointAndRoundsOnOddCycle) {
  expect_trials_sparse_match_full(cycle_graph(101), 13);
}

TEST(SyncRunnerSparse, SameFixpointAndRoundsOnCliqueBlowup) {
  expect_trials_sparse_match_full(bench::hard_instance(32, 12, 5).graph, 3);
}

// Hop distances from one source: round r settles the nodes at distance
// r + 1, so the changed set is one BFS layer — a few nodes, then most of
// an expander, then a few, then none once the wave has passed (the runs
// go on for a fixed number of rounds). The schedule must therefore run
// dense, switch to sparse, re-widen to dense and switch to sparse once
// more; per-round step counts pin that shape (a dense round steps all n
// nodes).
TEST(SyncRunnerSparse, WaveNarrowsWidensAndNarrowsAgain) {
  const Graph g = random_regular(4096, 4, 7);
  const NodeId n = g.num_nodes();
  std::vector<int> init(n, -1);
  init[0] = 0;
  constexpr int kRounds = 24;  // the wave crosses the graph in ~10
  std::vector<std::atomic<NodeId>> steps(kRounds);
  const auto step = [&steps](const SyncRunner<int>::View& view) {
    ++steps[static_cast<std::size_t>(view.round())];
    if (view.self() >= 0) return view.self();
    int dist = -1;
    for (const NodeId u : view.neighbors()) {
      const int du = view.neighbor(u);
      if (du >= 0 && (dist < 0 || du + 1 < dist)) dist = du + 1;
    }
    return dist;
  };
  const auto never = [](NodeId, int) { return false; };
  expect_sparse_matches_full(g, init, kRounds, step, never);

  // One more serial sparse run, with its step counts alone.
  for (auto& c : steps) c.store(0);
  SyncRunner<int> sparse(g, init, EngineOptions{1});
  sparse.run_sparse_until(kRounds, step, never);
  for (const int d : sparse.states()) ASSERT_GE(d, 0);
  // 'D' for a dense round, 's' for a sparse one; `runs` keeps one letter
  // per run of equal letters.
  std::string shape, runs;
  for (int r = 0; r < kRounds; ++r) {
    shape += steps[static_cast<std::size_t>(r)].load() == n ? 'D' : 's';
    if (runs.empty() || runs.back() != shape.back()) runs += shape.back();
  }
  EXPECT_EQ(runs, "DsDs") << shape;
}

// ---------------------------------------------------------------------------
// Keyed sparse rounds.

/// A schedule-driven state: `slot` is the round in which the node acts (or
/// -1), and acting folds the neighbors' values into `value` and clears the
/// slot — so the node acts at most once, as run_keyed's contract demands.
struct Slotted {
  std::uint64_t value = 0;
  int slot = -1;
  bool operator==(const Slotted&) const = default;
};

std::vector<Slotted> slotted_initial(const Graph& g, int rounds,
                                     std::uint64_t seed) {
  std::vector<Slotted> init(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    init[v].value = hash_mix(seed, v);
    // Some nodes never act (-1), and some keys fall past the last round,
    // which also means never.
    const std::uint64_t r = hash_mix(seed, v, 1) % (rounds + rounds / 4 + 2);
    init[v].slot = r < static_cast<std::uint64_t>(rounds + 1)
                       ? static_cast<int>(r) - 1
                       : static_cast<int>(r);
  }
  return init;
}

TEST(SyncRunnerKeyed, MatchesRunRoundsOnRandomGraphs) {
  constexpr int kRounds = 23;
  const auto step = [](const SyncRunner<Slotted>::View& view) {
    Slotted s = view.self();
    if (s.slot != view.round()) return s;
    std::uint64_t mix = s.value ^ static_cast<std::uint64_t>(view.round());
    for (const NodeId u : view.neighbors())
      mix = splitmix64(mix) ^ view.neighbor(u).value;
    s.value = mix;
    s.slot = -1;
    return s;
  };
  const auto key = [](NodeId, const Slotted& s) { return s.slot; };
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = random_graph(400, 0.02 * static_cast<double>(seed), seed);
    const std::vector<Slotted> init = slotted_initial(g, kRounds, seed);
    SyncRunner<Slotted> reference(g, init, EngineOptions{1});
    reference.run_rounds(kRounds, step);
    for (const int workers : {1, 2, 8}) {
      SyncRunner<Slotted> keyed(g, init, EngineOptions{workers});
      EXPECT_EQ(keyed.run_keyed(kRounds, key, step), kRounds);
      EXPECT_EQ(keyed.states(), reference.states())
          << "seed=" << seed << " workers=" << workers;
      // A second keyed call on the same runner reuses its buckets: every
      // slot is now -1, so nothing acts.
      const std::vector<Slotted> settled = keyed.states();
      keyed.run_keyed(kRounds, key, step);
      EXPECT_EQ(keyed.states(), settled);
    }
  }
}

TEST(SyncRunnerKeyed, KwAndDegPlusOneBitIdenticalAcrossEngines) {
  const EngineOptions engines[] = {{1}, {2}, {8}};
  for (const std::uint64_t seed : {4, 5}) {
    const Graph g = random_graph(600, 0.02, seed);
    // KW from Linial's palette to Delta + 1, on the host graph and on a
    // lazy induced view.
    std::vector<NodeId> half;
    for (NodeId v = 0; v < g.num_nodes(); v += 2) half.push_back(v);
    const InducedSubgraphView view(g, half);
    // deg+1 on a random active set with the full (Delta+1) lists.
    NodeMask active(g.num_nodes(), 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      active[v] = hash_mix(seed, v, 9) % 3 != 0;
    const ColorLists lists = uniform_lists(g, g.max_degree() + 1);

    std::vector<Color> kw_host0, kw_view0, dp0;
    for (const EngineOptions& engine : engines) {
      RoundLedger ledger;
      LocalContext ctx(ledger, engine, seed);
      const LinialResult lin = linial_coloring(g, ctx);
      const LinialResult kw_host = kw_reduce(g, lin.color, lin.num_colors,
                                             g.max_degree() + 1, ctx);
      EXPECT_TRUE(is_proper_coloring(g, kw_host.color, g.max_degree() + 1));
      const LinialResult lin_view = linial_coloring(view, ctx);
      const LinialResult kw_view =
          kw_reduce(view, lin_view.color, lin_view.num_colors,
                    view.max_degree() + 1, ctx);
      std::vector<Color> color(g.num_nodes(), kNoColor);
      deg_plus_one_list_color(g, active, lists, color, ctx);
      for (NodeId v = 0; v < g.num_nodes(); ++v)
        EXPECT_EQ(color[v] != kNoColor, active[v] != 0) << v;
      EXPECT_FALSE(find_partial_conflict(g, color).has_value());
      const std::string tag = "seed=" + std::to_string(seed) +
                              " workers=" + std::to_string(engine.num_threads);
      if (kw_host0.empty()) {
        kw_host0 = kw_host.color;
        kw_view0 = kw_view.color;
        dp0 = color;
        continue;
      }
      EXPECT_EQ(kw_host.color, kw_host0) << tag;
      EXPECT_EQ(kw_view.color, kw_view0) << tag;
      EXPECT_EQ(color, dp0) << tag;
    }
  }
}

TEST(LedgerTime, TotalsAreMonotoneAndPhaseMerged) {
  RoundLedger l;
  double last = 0.0;
  for (int i = 0; i < 10; ++i) {
    l.charge_time(i % 2 == 0 ? "a" : "b", 0.5 * i);
    EXPECT_GE(l.time_total(), last);
    last = l.time_total();
  }
  EXPECT_DOUBLE_EQ(l.time_total(), l.phase_time("a") + l.phase_time("b"));
  EXPECT_DOUBLE_EQ(l.phase_time("missing"), 0.0);

  RoundLedger other;
  other.charge("a", 3);
  other.charge_time("a", 2.0);
  other.charge_time("c", 1.0);
  const double before = l.time_total();
  l.merge(other);
  EXPECT_DOUBLE_EQ(l.time_total(), before + 3.0);
  EXPECT_DOUBLE_EQ(l.phase_time("a"),
                   2.0 + 0.5 * (0 + 2 + 4 + 6 + 8));
  EXPECT_DOUBLE_EQ(l.phase_time("c"), 1.0);
  EXPECT_EQ(l.phase_total("a"), 3);

  // Engine algorithms charge both dimensions under the same phase label.
  RoundLedger run;
  mis_message_passing(cycle_graph(15), 1, run, "mis-mp");
  EXPECT_GT(run.total(), 0);
  EXPECT_GT(run.time_total(), 0.0);
  EXPECT_DOUBLE_EQ(run.time_total(), run.phase_time("mis-mp"));
  EXPECT_NE(run.json().find("\"ms\""), std::string::npos);
}

TEST(LedgerTime, ManyPhasesIndexedLookup) {
  RoundLedger l;
  for (int i = 0; i < 500; ++i) {
    l.charge("phase-" + std::to_string(i), i + 1);
    l.charge_time("phase-" + std::to_string(i), 0.25);
  }
  for (int i = 0; i < 500; ++i)
    EXPECT_EQ(l.phase_total("phase-" + std::to_string(i)), i + 1);
  EXPECT_EQ(l.phases().size(), 500u);
  EXPECT_DOUBLE_EQ(l.time_total(), 125.0);
}

}  // namespace
}  // namespace deltacolor
