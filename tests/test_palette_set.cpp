// Oracle-parity and boundary tests for the word-parallel palette kernels
// (common/palette.hpp), plus the allocation-counting hook that pins the
// "no heap allocation in a steady-state engine round" contract.

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "bench_support/workloads.hpp"
#include "common/palette.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "local/context.hpp"
#include "local/sync_runner.hpp"
#include "primitives/list_coloring.hpp"

// ---------------------------------------------------------------------------
// Allocation-counting hook: every global new/delete in this binary bumps a
// counter. Tests sample the counter around a region and assert on the delta.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace deltacolor {
namespace {

// ---------------------------------------------------------------------------
// PaletteSet vs std::set<Color> oracle
// ---------------------------------------------------------------------------

// Widths straddle the word size: sub-word, exact words, and ragged tails.
const int kWidths[] = {1, 3, 63, 64, 65, 127, 128, 200, 1024};

std::vector<Color> members_of(const PaletteSet& s) {
  std::vector<Color> out;
  s.for_each([&](Color c) { out.push_back(c); });
  return out;
}

TEST(PaletteSet, RandomizedOracleParity) {
  for (const int width : kWidths) {
    PaletteSet set(width);
    std::set<Color> oracle;
    std::uint64_t state = 0x9e3779b97f4a7c15ull + static_cast<unsigned>(width);
    auto draw = [&]() { return state = hash_mix(state, 1, 2); };
    for (int step = 0; step < 500; ++step) {
      const Color c = static_cast<Color>(draw() % static_cast<unsigned>(width));
      if (draw() % 2 == 0) {
        if (!oracle.count(c)) set.insert(c);
        oracle.insert(c);
      } else {
        set.erase(c);
        oracle.erase(c);
      }
      ASSERT_EQ(set.count(), static_cast<int>(oracle.size()));
      ASSERT_EQ(set.contains(c), oracle.count(c) == 1);
      // Full ascending enumeration matches the ordered oracle.
      const std::vector<Color> got = members_of(set);
      const std::vector<Color> want(oracle.begin(), oracle.end());
      ASSERT_EQ(got, want);
      // nth_free agrees with ordered indexing.
      ASSERT_EQ(set.nth_free(0), want.empty() ? kNoColor : want.front());
      if (!want.empty()) {
        const int k = static_cast<int>(draw() % want.size());
        ASSERT_EQ(set.nth_free(k), want[static_cast<std::size_t>(k)]);
        const std::uint64_t d = draw();
        ASSERT_EQ(set.sample_free(d),
                  want[static_cast<std::size_t>(
                      d % static_cast<std::uint64_t>(want.size()))]);
      }
      ASSERT_EQ(set.nth_free(static_cast<int>(want.size())), kNoColor);
      ASSERT_EQ(set.nth_free(static_cast<int>(want.size()) + 100), kNoColor);
    }
  }
}

TEST(PaletteSet, EmptyPaletteBoundary) {
  PaletteSet s(0);
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.nth_free(0), kNoColor);
  EXPECT_FALSE(s.contains(0));
  s.fill();  // no-op on width 0
  EXPECT_EQ(s.count(), 0);
  s.erase(5);  // out-of-range erase is a no-op, not UB
  EXPECT_EQ(s.count(), 0);
}

TEST(PaletteSet, FullPaletteAndRaggedTail) {
  for (const int width : kWidths) {
    PaletteSet s(width);
    s.fill();
    ASSERT_EQ(s.count(), width) << "width " << width;
    ASSERT_EQ(s.nth_free(0), 0);
    ASSERT_EQ(s.nth_free(width - 1), width - 1);
    ASSERT_EQ(s.nth_free(width), kNoColor);
    // fill() must not leak bits above the ragged tail: contains() past the
    // width is false and the count stays exact.
    EXPECT_FALSE(s.contains(width));
    EXPECT_FALSE(s.contains(kNoColor));
  }
}

TEST(PaletteSet, ResetReusesStorageAcrossWidths) {
  PaletteSet s(1024);
  s.fill();
  s.reset(65);  // shrink: stale high words must not resurface
  EXPECT_EQ(s.count(), 0);
  s.insert(64);
  EXPECT_EQ(s.nth_free(0), 64);
  s.reset(1024);  // grow back within the high-water capacity
  EXPECT_EQ(s.count(), 0);
  EXPECT_FALSE(s.contains(64));
}

// ---------------------------------------------------------------------------
// ColorLists vs nested-vector oracle
// ---------------------------------------------------------------------------

TEST(ColorLists, NestedConversionRoundTrips) {
  const std::vector<std::vector<Color>> nested = {
      {5, 1, 9}, {}, {2}, {7, 7, 0}};
  const ColorLists lists = nested;  // implicit conversion
  ASSERT_EQ(lists.size(), nested.size());
  EXPECT_FALSE(lists.empty());
  std::size_t total = 0;
  for (std::size_t v = 0; v < nested.size(); ++v) {
    const std::span<const Color> got = lists[v];
    ASSERT_EQ(std::vector<Color>(got.begin(), got.end()), nested[v]);
    total += nested[v].size();
  }
  EXPECT_EQ(lists.total_colors(), total);
  EXPECT_EQ(lists.max_color(), 9);
}

TEST(ColorLists, IncrementalBuildMatchesAddList) {
  ColorLists a, b;
  a.push(3);
  a.push(1);
  a.close_list();
  a.close_list();  // empty list for node 1
  a.push(4);
  a.close_list();
  const std::vector<Color> l0 = {3, 1}, l2 = {4};
  b.add_list(l0);
  b.add_list({});
  b.add_list(l2);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  for (std::size_t v = 0; v < 3; ++v) {
    const auto sa = a[v];
    const auto sb = b[v];
    EXPECT_EQ(std::vector<Color>(sa.begin(), sa.end()),
              std::vector<Color>(sb.begin(), sb.end()));
  }
  EXPECT_EQ(a.max_color(), 4);
}

TEST(ColorLists, UniformMatchesManualLoop) {
  const ColorLists lists = ColorLists::uniform(5, 3);
  ASSERT_EQ(lists.size(), 5u);
  for (std::size_t v = 0; v < 5; ++v) {
    const auto span = lists[v];
    EXPECT_EQ(std::vector<Color>(span.begin(), span.end()),
              (std::vector<Color>{0, 1, 2}));
  }
  EXPECT_EQ(lists.max_color(), 2);
  EXPECT_EQ(lists.total_colors(), 15u);
}

TEST(ColorLists, UniformSharesOneRow) {
  ColorLists lists = ColorLists::uniform(1000, 17);
  ASSERT_EQ(lists.size(), 1000u);
  EXPECT_EQ(lists.total_colors(), 17000u);
  EXPECT_EQ(lists.max_color(), 16);
  // Every node's span is the one stored row, not a copy of it.
  const std::span<const Color> row = lists[0];
  ASSERT_EQ(row.size(), 17u);
  for (std::size_t v = 0; v < lists.size(); ++v) {
    EXPECT_EQ(lists[v].data(), row.data()) << "node " << v;
    EXPECT_EQ(lists[v].size(), row.size()) << "node " << v;
  }
  // A shared row cannot grow: extending it would extend every node's list.
  EXPECT_THROW(lists.push(3), std::logic_error);
  EXPECT_THROW(lists.close_list(), std::logic_error);
  EXPECT_THROW(lists.add_list(std::vector<Color>{1, 2}), std::logic_error);
  EXPECT_EQ(lists.size(), 1000u);
  EXPECT_EQ(lists.total_colors(), 17000u);
  // Degenerate shapes.
  const ColorLists none = ColorLists::uniform(0, 5);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.total_colors(), 0u);
  const ColorLists blank = ColorLists::uniform(3, 0);
  EXPECT_EQ(blank.size(), 3u);
  EXPECT_TRUE(blank[2].empty());
  EXPECT_EQ(blank.total_colors(), 0u);
  EXPECT_EQ(blank.max_color(), kNoColor);
}

TEST(ColorLists, EmptyStates) {
  const ColorLists fresh;
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(fresh.total_colors(), 0u);
  EXPECT_EQ(fresh.max_color(), kNoColor);
  // A list of empty lists is non-empty (it has nodes) with no colors.
  const ColorLists hollow = std::vector<std::vector<Color>>{{}, {}};
  EXPECT_FALSE(hollow.empty());
  EXPECT_EQ(hollow.size(), 2u);
  EXPECT_EQ(hollow.total_colors(), 0u);
}

// ---------------------------------------------------------------------------
// Steady-state allocation contract
// ---------------------------------------------------------------------------

// A linial-style step: per node, take (degree+1) words of a thread_local
// scratch buffer that only grows, and fold neighbor states through it.
// Once that buffer and the engine's are warm, additional rounds must
// perform zero heap allocations.
TEST(SteadyState, EngineRoundsAreAllocationFree) {
  const Graph g = random_regular(64, 6, 1);
  std::vector<int> init(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) init[v] = static_cast<int>(v);
  SyncRunner<int> runner(g, init, EngineOptions{.num_threads = 1});
  auto step = [](const SyncRunner<int>::View& view) {
    thread_local std::vector<int> buffer;
    const std::size_t n = static_cast<std::size_t>(view.degree()) + 1;
    if (buffer.size() < n) buffer.resize(n);
    int* scratch = buffer.data();
    std::size_t i = 0;
    scratch[i++] = view.self();
    for (const NodeId u : view.neighbors()) scratch[i++] = view.neighbor(u);
    // Unsigned, so the fold wraps instead of overflowing a signed int.
    unsigned acc = static_cast<unsigned>(view.round());
    for (std::size_t j = 0; j < i; ++j)
      acc ^= static_cast<unsigned>(scratch[j]) * 31u;
    return static_cast<int>(acc);
  };
  runner.run_rounds(4, step);  // warm-up: scratch reaches high water
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  const int rounds = runner.run_rounds(64, step);
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(rounds, 64);
  EXPECT_EQ(after - before, 0u)
      << "warm engine rounds must not touch the heap";
}

// Sparse rounds: node 0 changes state every round and no other node ever
// does, so after the first (dense) round every call steps only node 0's
// closed neighborhood. A call's setup may allocate its active lists, but
// the rounds themselves must not: a warm 64-round call allocates no more
// than a warm 8-round one.
TEST(SteadyState, SparseRoundsAreAllocationFree) {
  const Graph g = random_regular(256, 6, 3);
  SyncRunner<int> runner(g, std::vector<int>(g.num_nodes(), 0),
                         EngineOptions{.num_threads = 1});
  const auto step = [](const SyncRunner<int>::View& view) {
    return view.node() == 0 ? view.self() + 1 : view.self();
  };
  const auto never = [](NodeId, int) { return false; };
  const auto allocations = [&](int rounds) {
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(runner.run_sparse_until(rounds, step, never), rounds);
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  allocations(64);  // warm-up: the runner's buffers reach size
  const std::size_t short_call = allocations(8);
  const std::size_t long_call = allocations(64);
  EXPECT_LE(long_call, short_call)
      << "warm sparse rounds must not touch the heap";
  EXPECT_EQ(runner.states()[0], 136);
}

// Keyed sparse rounds: once a runner's bucket buffers are warm, a whole
// run_keyed call — bucketing, every round, the write-back — performs zero
// heap allocations, so no round allocates; the same holds over a node list.
TEST(SteadyState, KeyedRoundsAreAllocationFree) {
  const Graph g = random_regular(256, 6, 2);
  constexpr int kRounds = 40;
  std::vector<int> init(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    init[v] = static_cast<int>(hash_mix(3, v) % kRounds);
  SyncRunner<int> runner(g, init, EngineOptions{.num_threads = 1});
  // Acting adds a multiple of kRounds, so every node keeps its key and
  // acts again in the next call.
  const auto key = [](NodeId, int s) { return s % kRounds; };
  const auto step = [](const SyncRunner<int>::View& view) {
    if (view.self() % kRounds != view.round()) return view.self();
    int acc = view.self();
    for (const NodeId u : view.neighbors()) acc ^= view.neighbor(u);
    return view.self() + kRounds * (1 + (acc & 7));
  };
  std::vector<NodeId> list;
  for (NodeId v = 0; v < g.num_nodes(); v += 3) list.push_back(v);
  runner.run_keyed(kRounds, key, step);  // warm-up: buffers reach size
  runner.run_keyed(kRounds, key, step, list);
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int call = 0; call < 8; ++call) runner.run_keyed(kRounds, key, step);
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "warm keyed rounds must not touch the heap";
  for (int call = 0; call < 8; ++call) {
    runner.run_keyed(kRounds, key, step, list);
    runner.mutate_states([](int s) { return s + kRounds; }, list);
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - after, 0u)
      << "warm keyed rounds over a list must not touch the heap";
}

// End-to-end: repeated warm runs of the deg+1 list-coloring engine allocate
// a flat amount (setup only — state buffers, result vector), i.e. the
// per-round path adds nothing. Asserting run2 == run3 avoids counting the
// one-time thread_local warm-up of the first run.
TEST(SteadyState, DegPlusOneAllocationsFlatAcrossWarmRuns) {
  const Graph g = bench::hard_instance(32, 12, 5).graph;
  const ColorLists lists = uniform_lists(g, g.max_degree() + 1);
  auto run_once = [&]() {
    RoundLedger ledger;
    LocalContext ctx(ledger, EngineOptions{.num_threads = 1}, 7);
    std::vector<Color> color(g.num_nodes(), kNoColor);
    NodeMask active(g.num_nodes(), 1);
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    deg_plus_one_list_color(g, active, lists, color, ctx);
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  run_once();  // warm-up
  const std::size_t second = run_once();
  const std::size_t third = run_once();
  EXPECT_EQ(second, third);
}

}  // namespace
}  // namespace deltacolor
