// Tests for the parallel execution engine:
//  (a) states bit-identical across worker counts {1, 2, 8} and equal to an
//      independent serial reference of the pre-change engine semantics, on
//      Luby MIS and color-trial workloads, and at {2, 3, 8} workers on a
//      hub-first skewed graph; the pool's for_range hands each worker the
//      same slice on every call, runs inline at one worker or one item,
//      rethrows the lowest worker's exception after the join and rejects
//      nested jobs, and shared(n) caches one pool per worker count;
//  (b) sparse activation (run_sparse_until) reaches the same states in the
//      same number of rounds as full sweeps (run_until), on an odd cycle, a
//      clique blow-up and a wave whose changed set narrows, widens and
//      narrows again;
//  (c) RoundLedger wall-clock totals are monotone and merge per phase;
//  (d) keyed sparse rounds (run_keyed) equal run_rounds for schedule-driven
//      steps, evaluate the key once per candidate, and over a node list
//      equal the all-nodes form keyed -1 off the list; the keyed primitives
//      (KW reduction, also over a list, and the deg+1 class sweep) are
//      bit-identical across worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_support/workloads.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
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

// for_range is the pool's only split: worker w's slice depends on the
// range and the worker count alone, so every call over the same range (one
// engine round after another) hands each worker the same nodes.
TEST(ThreadPool, ForRangeGivesEachWorkerTheSameSliceEveryCall) {
  using Slice = std::pair<std::size_t, std::size_t>;
  for (const int workers : {2, 3, 8}) {
    ThreadPool& pool = ThreadPool::shared(workers);
    ASSERT_EQ(pool.num_workers(), workers);
    for (const std::size_t size : {std::size_t{7}, std::size_t{1000},
                                   std::size_t{1} << 20}) {
      const std::string tag = "workers=" + std::to_string(workers) +
                              " size=" + std::to_string(size);
      std::vector<Slice> first;
      for (int call = 0; call < 3; ++call) {
        // Each worker writes only its own slot.
        std::vector<Slice> slices(static_cast<std::size_t>(workers),
                                  Slice{size + 1, size + 1});
        pool.for_range(0, size, [&](int w, std::size_t b, std::size_t e) {
          slices[static_cast<std::size_t>(w)] = {b, e};
        });
        std::size_t next = 0;
        for (const auto& [b, e] : slices) {
          ASSERT_EQ(b, next) << tag;  // contiguous, ascending by worker
          ASSERT_LE(b, e) << tag;
          next = e;
        }
        ASSERT_EQ(next, size) << tag;  // covers [0, size) once
        if (call == 0) {
          first = slices;
        } else {
          EXPECT_EQ(slices, first) << tag << " call=" << call;
        }
      }
    }
  }
}

// Worker w's chunk of [begin, end) is [begin + w*len/W, begin +
// (w+1)*len/W): an offset range is sliced like [0, len), shifted.
TEST(ThreadPool, ForRangeSlicesAnOffsetRangeFromItsBegin) {
  using Slice = std::pair<std::size_t, std::size_t>;
  ThreadPool pool(4);
  const std::size_t len = 1003;
  std::vector<Slice> at_zero(4), shifted(4);
  pool.for_range(0, len, [&](int w, std::size_t b, std::size_t e) {
    at_zero[static_cast<std::size_t>(w)] = {b, e};
  });
  pool.for_range(100, 100 + len, [&](int w, std::size_t b, std::size_t e) {
    shifted[static_cast<std::size_t>(w)] = {b, e};
  });
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(at_zero[w], (Slice{w * len / 4, (w + 1) * len / 4}))
        << "worker " << w;
    EXPECT_EQ(shifted[w],
              (Slice{at_zero[w].first + 100, at_zero[w].second + 100}))
        << "worker " << w;
  }
}

// A one-worker pool, or a one-item range, costs no fork/join: the calling
// thread runs the whole range as worker 0.
TEST(ThreadPool, OneWorkerOrOneItemRunsInlineOnTheCaller) {
  struct Call {
    int worker;
    std::size_t begin, end;
    std::thread::id thread;
    bool operator==(const Call&) const = default;
  };
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<Call> calls;
  const auto record = [&](int w, std::size_t b, std::size_t e) {
    calls.push_back({w, b, e, std::this_thread::get_id()});
  };
  ThreadPool single(1);
  ThreadPool four(4);
  single.for_range(3, 40, record);
  four.for_range(9, 10, record);
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0], (Call{0, 3, 40, caller}));
  EXPECT_EQ(calls[1], (Call{0, 9, 10, caller}));
}

// When chunks throw, the caller gets the exception of the lowest failing
// worker index, not of the chunk that failed first in time.
TEST(ThreadPool, ForRangeRethrowsTheLowestWorkerException) {
  struct Case {
    std::vector<int> failing;
    const char* expected;
  };
  ThreadPool pool(4);
  for (const Case& c : {Case{{1, 3}, "worker 1"}, Case{{0, 2}, "worker 0"},
                        Case{{3}, "worker 3"}}) {
    for (int trial = 0; trial < 10; ++trial) {
      try {
        pool.for_range(0, 400, [&](int w, std::size_t, std::size_t) {
          if (std::find(c.failing.begin(), c.failing.end(), w) !=
              c.failing.end())
            throw std::runtime_error("worker " + std::to_string(w));
        });
        ADD_FAILURE() << "no exception, expected " << c.expected;
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), c.expected);
      }
    }
  }
}

// The rethrow waits for the join: every chunk that did not throw ran to
// its end, and the pool takes the next job as usual.
TEST(ThreadPool, ThrowingJobJoinsEveryChunkAndLeavesThePoolUsable) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  EXPECT_THROW(pool.for_range(0, 1000,
                              [&](int w, std::size_t b, std::size_t e) {
                                if (w == 0) throw std::runtime_error("w0");
                                for (std::size_t i = b; i < e; ++i) ++hits[i];
                              }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i], i < 250 ? 0 : 1) << "index " << i;
  std::fill(hits.begin(), hits.end(), 0);
  pool.for_range(0, 1000, [&](int, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

// A chunk may not start a job on the pool that runs it (sweep cells use
// one worker for exactly this reason); the attempt is a logic_error on
// the caller, and the pool stays usable.
TEST(ThreadPool, NestedForRangeIsRejected) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_range(0, 100,
                              [&](int, std::size_t, std::size_t) {
                                pool.for_range(
                                    0, 100,
                                    [](int, std::size_t, std::size_t) {});
                              }),
               std::logic_error);
  std::atomic<std::size_t> covered{0};
  pool.for_range(0, 100, [&](int, std::size_t b, std::size_t e) {
    covered += e - b;
  });
  EXPECT_EQ(covered.load(), 100u);
}

// shared(n) is the one public way to a pool: one cached pool per worker
// count, and every n <= 0 names the default pool.
TEST(ThreadPool, SharedReturnsOnePoolPerWorkerCount) {
  ThreadPool& three = ThreadPool::shared(3);
  EXPECT_EQ(three.num_workers(), 3);
  EXPECT_EQ(&ThreadPool::shared(3), &three);
  ThreadPool& two = ThreadPool::shared(2);
  EXPECT_NE(&two, &three);
  EXPECT_EQ(two.num_workers(), 2);
}

TEST(ThreadPool, SharedMapsNonPositiveCountsToTheDefaultPool) {
  ThreadPool& dflt = ThreadPool::shared(0);
  EXPECT_EQ(&ThreadPool::shared(-1), &dflt);
  EXPECT_EQ(&ThreadPool::shared(0), &dflt);
  EXPECT_EQ(dflt.num_workers(), ThreadPool::default_workers());
}

/// Hubs first: nodes 0..hubs-1 each join their own `leaves_per_hub`
/// leaves, numbered after every hub, and one path runs through the leaves,
/// so the (deg + 1)-weight piles up at the front of the node range.
Graph hub_first_graph(NodeId hubs, NodeId leaves_per_hub) {
  const NodeId n = hubs + hubs * leaves_per_hub;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId h = 0; h < hubs; ++h)
    for (NodeId i = 0; i < leaves_per_hub; ++i)
      edges.push_back({h, hubs + h * leaves_per_hub + i});
  for (NodeId v = hubs; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return Graph(n, std::move(edges));
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
  // The hub-first graph: odd worker counts cut its full sweeps at
  // uneven, unaligned slice boundaries.
  const Graph graphs[] = {random_regular(300, 6, 11), hub_first_graph(5, 70)};
  for (const Graph& g : graphs) {
    const NodeId n = g.num_nodes();
    SyncRunner<S> serial(g, std::vector<S>(n), EngineOptions{1});
    serial.run_rounds(40, step);
    for (const int workers : {2, 3, 8}) {
      SyncRunner<S> par(g, std::vector<S>(n), EngineOptions{workers});
      par.run_rounds(40, step);
      ASSERT_EQ(par.states().size(), serial.states().size());
      for (NodeId v = 0; v < n; ++v)
        EXPECT_EQ(par.states()[v], serial.states()[v])
            << "n=" << n << " workers=" << workers << " node=" << v;
    }
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

// The step shared by the keyed tests: an acting node folds its
// neighbors' values into its own and clears its slot.
Slotted fold_step(const SyncRunner<Slotted>::View& view) {
  Slotted s = view.self();
  if (s.slot != view.round()) return s;
  std::uint64_t mix = s.value ^ static_cast<std::uint64_t>(view.round());
  for (const NodeId u : view.neighbors())
    mix = splitmix64(mix) ^ view.neighbor(u).value;
  s.value = mix;
  s.slot = -1;
  return s;
}

TEST(SyncRunnerKeyed, MatchesRunRoundsOnRandomGraphs) {
  constexpr int kRounds = 23;
  const auto step = fold_step;
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

std::vector<NodeId> every_third_hashed(NodeId n, std::uint64_t seed) {
  std::vector<NodeId> list;
  for (NodeId v = 0; v < n; ++v)
    if (hash_mix(seed, v, 2) % 3 == 0) list.push_back(v);
  return list;
}

// The key runs once per candidate per call — every node without a list,
// each listed node (and no other) with one.
TEST(SyncRunnerKeyed, KeyRunsOncePerCandidate) {
  constexpr int kRounds = 11;
  const Graph g = random_graph(300, 0.03, 6);
  const std::vector<NodeId> list = every_third_hashed(g.num_nodes(), 6);
  ASSERT_FALSE(list.empty());
  for (const int workers : {1, 8}) {
    SyncRunner<Slotted> runner(g, slotted_initial(g, kRounds, 6),
                               EngineOptions{workers});
    std::atomic<std::size_t> calls{0};
    NodeMask keyed(g.num_nodes(), 0);
    const auto key = [&](NodeId v, const Slotted& s) {
      ++calls;
      keyed[v] = 1;
      return s.slot;
    };
    runner.run_keyed(kRounds, key, fold_step);
    EXPECT_EQ(calls.load(), g.num_nodes()) << "workers=" << workers;
    calls = 0;
    std::fill(keyed.begin(), keyed.end(), 0);
    runner.run_keyed(kRounds, key, fold_step, list);
    EXPECT_EQ(calls.load(), list.size()) << "workers=" << workers;
    std::size_t listed_keyed = 0;
    for (const NodeId v : list) listed_keyed += keyed[v];
    EXPECT_EQ(listed_keyed, list.size());
  }
}

// run_keyed and mutate_states over a list equal the all-nodes forms keyed
// -1 (left alone) off the list, at any worker count, and never touch an
// unlisted state.
TEST(SyncRunnerKeyed, ListFormEqualsAllNodesKeyedOffTheList) {
  constexpr int kRounds = 23;
  const auto relabel = [](Slotted s) {
    s.value = splitmix64(s.value);
    return s;
  };
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = random_graph(400, 0.02 * static_cast<double>(seed), seed);
    const std::vector<Slotted> init = slotted_initial(g, kRounds, seed);
    const std::vector<NodeId> list = every_third_hashed(g.num_nodes(), seed);
    NodeMask listed(g.num_nodes(), 0);
    for (const NodeId v : list) listed[v] = 1;
    SyncRunner<Slotted> reference(g, init, EngineOptions{1});
    reference.run_keyed(
        kRounds,
        [&](NodeId v, const Slotted& s) { return listed[v] ? s.slot : -1; },
        fold_step);
    std::vector<Slotted> want = reference.states();
    for (const NodeId v : list) want[v] = relabel(want[v]);
    const auto key = [](NodeId, const Slotted& s) { return s.slot; };
    for (const int workers : {1, 2, 8}) {
      SyncRunner<Slotted> keyed(g, init, EngineOptions{workers});
      EXPECT_EQ(keyed.run_keyed(kRounds, key, fold_step, list), kRounds);
      keyed.mutate_states(relabel, list);
      EXPECT_EQ(keyed.states(), want)
          << "seed=" << seed << " workers=" << workers;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (listed[v]) continue;
        ASSERT_EQ(keyed.states()[v], init[v]) << v;
      }
    }
  }
}

// Buckets of 0, 1, 7, 8 and 9 nodes (around the prefetch distance), with
// and without a list, match full sweeps; under ASan the prefetching walk
// stays inside each bucket.
TEST(SyncRunnerKeyed, SmallBucketsAroundThePrefetchDistance) {
  const std::size_t sizes[] = {0, 1, 7, kKeyedPrefetchDistance,
                               kKeyedPrefetchDistance + 1, 0, 9};
  const int rounds = static_cast<int>(std::size(sizes));
  const Graph g = random_regular(64, 5, 9);
  std::vector<Slotted> init(g.num_nodes());
  NodeId next = 0;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < sizes[r]; ++i, ++next) {
      // Spread each bucket over the node range, not one contiguous run.
      const NodeId v = static_cast<NodeId>((next * 37) % g.num_nodes());
      init[v].slot = r;
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) init[v].value = hash_mix(9, v);
  SyncRunner<Slotted> reference(g, init, EngineOptions{1});
  reference.run_rounds(rounds, fold_step);
  std::vector<NodeId> all(g.num_nodes());
  std::iota(all.begin(), all.end(), NodeId{0});
  const auto key = [](NodeId, const Slotted& s) { return s.slot; };
  for (const int workers : {1, 2, 8}) {
    SyncRunner<Slotted> keyed(g, init, EngineOptions{workers});
    keyed.run_keyed(rounds, key, fold_step);
    EXPECT_EQ(keyed.states(), reference.states()) << "workers=" << workers;
    SyncRunner<Slotted> listed(g, init, EngineOptions{workers});
    listed.run_keyed(rounds, key, fold_step, all);
    EXPECT_EQ(listed.states(), reference.states()) << "workers=" << workers;
  }
}

TEST(SyncRunnerKeyed, KwAndDegPlusOneBitIdenticalAcrossEngines) {
  const EngineOptions engines[] = {{1}, {2}, {8}};
  for (const std::uint64_t seed : {4, 5}) {
    const Graph g = random_graph(600, 0.02, seed);
    // KW from Linial's palette to Delta + 1, on the host graph, and over
    // the list of every other node with host-indexed colors, which must
    // color the list exactly as KW colors the materialized subgraph.
    std::vector<NodeId> half;
    for (NodeId v = 0; v < g.num_nodes(); v += 2) half.push_back(v);
    const Subgraph sub = induced_subgraph(g, half);
    const ActiveNodes act{half, sub.graph.max_degree()};
    // deg+1 on a random active set with the full (Delta+1) lists.
    NodeMask active(g.num_nodes(), 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      active[v] = hash_mix(seed, v, 9) % 3 != 0;
    const ColorLists lists = uniform_lists(g, g.max_degree() + 1);

    std::vector<Color> kw_host0, kw_list0, dp0;
    for (const EngineOptions& engine : engines) {
      RoundLedger ledger;
      LocalContext ctx(ledger, engine, seed);
      const LinialResult lin = linial_coloring(g, ctx);
      const LinialResult kw_host = kw_reduce(g, lin.color, lin.num_colors,
                                             g.max_degree() + 1, ctx);
      EXPECT_TRUE(is_proper_coloring(g, kw_host.color, g.max_degree() + 1));
      const LinialResult lin_sub = linial_coloring(sub.graph, ctx);
      const LinialResult kw_sub =
          kw_reduce(sub.graph, lin_sub.color, lin_sub.num_colors,
                    sub.graph.max_degree() + 1, ctx);
      std::vector<Color> listed_in(g.num_nodes(), kNoColor);
      for (NodeId i = 0; i < sub.graph.num_nodes(); ++i)
        listed_in[sub.orig_of[i]] = lin_sub.color[i];
      const LinialResult kw_list =
          kw_reduce(g, std::move(listed_in), lin_sub.num_colors,
                    act.max_degree + 1, ctx, &act);
      EXPECT_EQ(kw_list.rounds, kw_sub.rounds);
      EXPECT_EQ(kw_list.num_colors, kw_sub.num_colors);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const NodeId i = sub.sub_of[v];
        ASSERT_EQ(kw_list.color[v], i == kNoNode ? kNoColor : kw_sub.color[i])
            << v;
      }
      std::vector<Color> color(g.num_nodes(), kNoColor);
      deg_plus_one_list_color(g, active, lists, color, ctx);
      for (NodeId v = 0; v < g.num_nodes(); ++v)
        EXPECT_EQ(color[v] != kNoColor, active[v] != 0) << v;
      EXPECT_FALSE(find_partial_conflict(g, color).has_value());
      const std::string tag = "seed=" + std::to_string(seed) +
                              " workers=" + std::to_string(engine.num_threads);
      if (kw_host0.empty()) {
        kw_host0 = kw_host.color;
        kw_list0 = kw_list.color;
        dp0 = color;
        continue;
      }
      EXPECT_EQ(kw_host.color, kw_host0) << tag;
      EXPECT_EQ(kw_list.color, kw_list0) << tag;
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
