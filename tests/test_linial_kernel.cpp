// Differential and arithmetic tests for the Linial step kernel.
//
// The library's step tries the evaluation point x = 0 from each color's
// constant digit before decomposing anything, and reduces through
// detail::LinialReciprocal instead of hardware % and /. The reference
// below is the earlier step transcribed: eager base-q decomposition of the
// closed neighborhood with % and /, then a scan from x = 0. Both must agree
// on every color, the palette size and the round count, on host graphs, on
// every lazy view and on an active list of a host graph (against the
// materialized induced subgraph), for narrow and 64-bit-wide identifiers,
// at any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/checker.hpp"
#include "graph/generators.hpp"
#include "graph/graph_view.hpp"
#include "graph/subgraph.hpp"
#include "local/context.hpp"
#include "primitives/linial.hpp"

namespace deltacolor {
namespace {

constexpr std::uint64_t kMax64 = ~std::uint64_t{0};

// ---- transcribed reference ------------------------------------------------

template <GraphView ViewT>
LinialResult reference_linial_reduce(const ViewT& view,
                                     const std::vector<std::uint64_t>& initial,
                                     const EngineOptions& engine) {
  const NodeId n = view.num_nodes();
  LinialResult res;
  res.color.assign(n, 0);
  if (n == 0) {
    res.num_colors = 1;
    return res;
  }
  std::uint64_t max_val = 0;
  for (const std::uint64_t c : initial) max_val = std::max(max_val, c);
  const int max_degree = view.max_degree();
  SyncRunner<std::uint64_t, ViewT> runner(view, initial, engine);
  std::atomic<bool> failed{false};
  for (;;) {
    const auto [q, d] = detail::linial_choose_field(max_degree, max_val);
    if (q * q > max_val) break;
    runner.run_rounds(1, [q = q, d = d, &failed](const auto& v) {
      const std::size_t terms = static_cast<std::size_t>(d) + 1;
      std::vector<std::uint32_t> self_coeff(terms);
      std::vector<std::uint32_t> nbr_coeff;
      {
        std::uint64_t c = v.self();
        for (std::size_t i = 0; i < terms; ++i) {
          self_coeff[i] = static_cast<std::uint32_t>(c % q);
          c /= q;
        }
      }
      std::size_t nbrs = 0;
      v.for_each_neighbor([&](NodeId u) {
        if (u == v.node()) return;
        std::uint64_t c = v.neighbor(u);
        for (std::size_t i = 0; i < terms; ++i) {
          nbr_coeff.push_back(static_cast<std::uint32_t>(c % q));
          c /= q;
        }
        ++nbrs;
      });
      const auto eval = [&](const std::uint32_t* a, std::uint64_t x) {
        std::uint64_t acc = 0;
        for (int i = d; i >= 0; --i) acc = (acc * x + a[i]) % q;
        return acc;
      };
      for (std::uint64_t x = 0; x < q; ++x) {
        const std::uint64_t mine = eval(self_coeff.data(), x);
        bool ok = true;
        for (std::size_t j = 0; j < nbrs && ok; ++j) {
          if (eval(nbr_coeff.data() + j * terms, x) == mine) ok = false;
        }
        if (ok) return x * q + mine;
      }
      failed.store(true);
      return static_cast<std::uint64_t>(v.self());
    });
    EXPECT_FALSE(failed.load());
    max_val = q * q - 1;
    ++res.rounds;
  }
  res.num_colors = static_cast<int>(max_val + 1);
  const auto& states = runner.states();
  for (NodeId v = 0; v < n; ++v)
    res.color[v] = static_cast<Color>(states[v]);
  return res;
}

// ---- identifier assignments -----------------------------------------------

enum class Ids { kIdentity, kShuffled, kWide };

std::string ids_name(Ids ids) {
  switch (ids) {
    case Ids::kIdentity: return "identity";
    case Ids::kShuffled: return "shuffled";
    case Ids::kWide: return "wide";
  }
  return "?";
}

// Identity, a random permutation of 0..n-1, or distinct uniform 64-bit
// values >= 2^32, so the first stage decomposes full-width operands.
void install_ids(Graph& g, Ids ids, std::uint64_t seed) {
  const NodeId n = g.num_nodes();
  std::vector<std::uint64_t> id(n);
  std::iota(id.begin(), id.end(), std::uint64_t{0});
  Rng rng(seed);
  if (ids == Ids::kShuffled) {
    for (NodeId i = n; i > 1; --i) std::swap(id[i - 1], id[rng.below(i)]);
  } else if (ids == Ids::kWide) {
    std::set<std::uint64_t> seen;
    for (NodeId v = 0; v < n; ++v) {
      do {
        id[v] = rng() | (std::uint64_t{1} << 32);
      } while (!seen.insert(id[v]).second);
    }
  }
  g.set_ids(std::move(id));
}

const EngineOptions kEngines[] = {{1}, {8}};

// Runs the library reduction and the reference on `view` from its LOCAL
// identifiers under every engine configuration and requires identical
// colors, palette and rounds; returns the library result.
template <GraphView ViewT>
LinialResult expect_matches_reference(const ViewT& view,
                                      const std::string& tag) {
  std::vector<std::uint64_t> initial(view.num_nodes());
  for (NodeId v = 0; v < view.num_nodes(); ++v) initial[v] = view.id(v);
  LinialResult first;
  for (const EngineOptions& engine : kEngines) {
    const std::string where =
        tag + " workers=" + std::to_string(engine.num_threads);
    RoundLedger ledger;
    LocalContext ctx(ledger, engine, 1);
    const LinialResult got = linial_reduce(view, initial, ctx);
    const LinialResult want = reference_linial_reduce(view, initial, engine);
    EXPECT_EQ(got.rounds, want.rounds) << where;
    EXPECT_EQ(got.num_colors, want.num_colors) << where;
    EXPECT_TRUE(got.color == want.color) << where;
    EXPECT_EQ(ledger.total(),
              static_cast<std::int64_t>(got.rounds) * view.dilation())
        << where;
    if (first.color.empty()) first = got;
  }
  return first;
}

CliqueInstance blowup(int cliques, int delta, int s, std::uint64_t seed) {
  CliqueInstanceOptions opt;
  opt.num_cliques = cliques;
  opt.delta = delta;
  opt.clique_size = s;
  opt.seed = seed;
  return clique_blowup_instance(opt);
}

std::vector<NodeId> random_mask(NodeId n, double keep, std::uint64_t seed) {
  std::vector<NodeId> nodes;
  Rng rng(seed);
  for (NodeId v = 0; v < n; ++v)
    if (rng.chance(keep)) nodes.push_back(v);
  return nodes;
}

const Ids kAllIds[] = {Ids::kIdentity, Ids::kShuffled, Ids::kWide};

// ---- differential: library kernel vs transcribed reference -----------------

TEST(LinialKernel, HostGraphsMatchReference) {
  std::vector<std::pair<std::string, Graph>> graphs;
  // Sizes where even identity ids need at least one stage.
  graphs.emplace_back("regular(2000,7)", random_regular(2000, 7, 11));
  graphs.emplace_back("regular(1500,16)", random_regular(1500, 16, 12));
  graphs.emplace_back("blowup(256,16,16)", blowup(256, 16, 16, 13).graph);
  graphs.emplace_back("blowup(128,12,12)", blowup(128, 12, 12, 14).graph);
  for (auto& [name, g] : graphs) {
    for (const Ids ids : kAllIds) {
      install_ids(g, ids, 21);
      const LinialResult res =
          expect_matches_reference(g, name + " ids=" + ids_name(ids));
      EXPECT_TRUE(is_proper_coloring(g, res.color, res.num_colors));
    }
  }
}

// The library run over an ascending active list of a host graph, with
// host-indexed states, must color the listed nodes exactly as the
// reference colors the materialized induced subgraph (host identifiers),
// leave kNoColor off the list, and never read the initial values there.
TEST(LinialKernel, ActiveListsMatchReferenceOnInducedSubgraph) {
  Graph reg = random_regular(1500, 9, 31);
  Graph blow = blowup(128, 16, 16, 32).graph;
  for (Graph* g : {&reg, &blow}) {
    for (const Ids ids : kAllIds) {
      install_ids(*g, ids, 33);
      for (const double keep : {0.03, 0.3, 0.7, 1.0}) {
        const std::vector<NodeId> nodes =
            random_mask(g->num_nodes(), keep, 34);
        const Subgraph sub = induced_subgraph(*g, nodes);
        const ActiveNodes act{nodes, sub.graph.max_degree()};
        std::vector<std::uint64_t> initial(g->num_nodes());
        for (NodeId v = 0; v < g->num_nodes(); ++v)
          initial[v] = sub.sub_of[v] == kNoNode ? hash_mix(35, v) : g->id(v);
        std::vector<std::uint64_t> sub_initial(sub.graph.num_nodes());
        for (NodeId i = 0; i < sub.graph.num_nodes(); ++i)
          sub_initial[i] = sub.graph.id(i);
        for (const EngineOptions& engine : kEngines) {
          const std::string where =
              "n=" + std::to_string(g->num_nodes()) +
              " keep=" + std::to_string(keep) + " ids=" + ids_name(ids) +
              " workers=" + std::to_string(engine.num_threads);
          RoundLedger ledger;
          LocalContext ctx(ledger, engine, 1);
          const LinialResult got = linial_reduce(*g, initial, ctx, &act);
          const LinialResult want =
              reference_linial_reduce(sub.graph, sub_initial, engine);
          EXPECT_EQ(got.rounds, want.rounds) << where;
          EXPECT_EQ(got.num_colors, want.num_colors) << where;
          ASSERT_EQ(got.color.size(), g->num_nodes()) << where;
          for (NodeId v = 0; v < g->num_nodes(); ++v) {
            const NodeId i = sub.sub_of[v];
            ASSERT_EQ(got.color[v], i == kNoNode ? kNoColor : want.color[i])
                << where << " node " << v;
          }
          EXPECT_EQ(ledger.total(), got.rounds) << where;
        }
      }
    }
  }
}

TEST(LinialKernel, LineGraphViewMatchesReference) {
  Graph g = random_regular(400, 5, 51);
  for (const Ids ids : kAllIds) {
    install_ids(g, ids, 52);
    const LineGraphView view(g);
    expect_matches_reference(view, "line ids=" + ids_name(ids));
  }
}

TEST(LinialKernel, CollidingConstantDigitsReachTheScan) {
  // Identity ids on a blow-up make neighbors share c mod q often, so the
  // decomposition path past x = 0 runs; in the final stage a color x*q+p(x)
  // with x > 0 shows it picked a later point.
  Graph g = blowup(256, 16, 16, 61).graph;
  install_ids(g, Ids::kIdentity, 0);
  const LinialResult res = expect_matches_reference(g, "blowup identity");
  ASSERT_GT(res.rounds, 0);
  std::uint64_t q = 1;
  while ((q + 1) * (q + 1) <= static_cast<std::uint64_t>(res.num_colors)) ++q;
  ASSERT_EQ(q * q, static_cast<std::uint64_t>(res.num_colors));
  const auto later = std::count_if(
      res.color.begin(), res.color.end(),
      [q](Color c) { return static_cast<std::uint64_t>(c) >= q; });
  EXPECT_GT(later, 0);
}

TEST(LinialKernel, MaximalIdentifierTerminates) {
  // max_val = 2^64 - 1: no 64-bit power of q exceeds it, so the field
  // choice must read a saturated power as the larger one.
  Graph g = path_graph(4);
  g.set_ids({kMax64, 0, 7, kMax64 - 1});
  RoundLedger ledger;
  LocalContext ctx(ledger);
  const LinialResult res = linial_coloring(g, ctx);
  EXPECT_GT(res.rounds, 0);
  EXPECT_TRUE(is_proper_coloring(g, res.color, res.num_colors));
  const LinialResult want =
      reference_linial_reduce(g, {kMax64, 0, 7, kMax64 - 1}, {1});
  EXPECT_TRUE(res.color == want.color);
  EXPECT_EQ(res.rounds, want.rounds);
}

// ---- the reduction helper -------------------------------------------------

void expect_exact(const detail::LinialReciprocal& r, std::uint64_t n) {
  const std::uint64_t q = r.divisor();
  ASSERT_EQ(r.div(n), n / q) << "n=" << n << " q=" << q;
  ASSERT_EQ(r.mod(n), n % q) << "n=" << n << " q=" << q;
}

// Boundaries, Horner-range values below q^2, values around multiples of q
// at the top of the range, and random 64-bit numerators.
void expect_exact_everywhere(std::uint64_t q, Rng& rng, int random_draws) {
  const detail::LinialReciprocal r(q);
  const std::uint64_t fixed[] = {0,
                                 1,
                                 q - 1,
                                 q,
                                 q + 1,
                                 2 * q - 1,
                                 2 * q,
                                 (std::uint64_t{1} << 32) - 1,
                                 std::uint64_t{1} << 32,
                                 (std::uint64_t{1} << 32) + 1,
                                 (std::uint64_t{1} << 63) - 1,
                                 std::uint64_t{1} << 63,
                                 (std::uint64_t{1} << 63) + 1,
                                 kMax64 - 1,
                                 kMax64};
  for (const std::uint64_t n : fixed) expect_exact(r, n);
  const std::uint64_t top = kMax64 / q * q;  // largest multiple of q
  for (const std::uint64_t n : {top - 1, top, top + (q - 1) / 2,
                                top - q, top - q + 1})
    expect_exact(r, n);
  if (q <= (std::uint64_t{1} << 32)) {
    const std::uint64_t sq = q * q;  // 2^64 wraps to 0 only at q = 2^32
    if (sq != 0) {
      for (const std::uint64_t n : {sq - 1, sq, (q - 1) * (q - 1) + (q - 1)})
        expect_exact(r, n);
    }
  }
  for (int i = 0; i < random_draws; ++i) {
    expect_exact(r, rng());
    expect_exact(r, rng() >> (rng() % 64));      // every operand width
    if (q <= (std::uint64_t{1} << 32) && q * q != 0)
      expect_exact(r, rng() % (q * q));          // Horner intermediates
  }
}

TEST(LinialReciprocal, SmallAndBoundaryDivisors) {
  Rng rng(71);
  std::vector<std::uint64_t> qs;
  for (std::uint64_t q = 2; q <= 4096; ++q) qs.push_back(q);
  for (int k = 12; k <= 63; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    qs.insert(qs.end(), {p - 1, p, p + 1});
  }
  qs.insert(qs.end(), {4294967291ULL, 4294967311ULL, 18446744073709551557ULL,
                       kMax64 - 1, kMax64});
  for (const std::uint64_t q : qs) expect_exact_everywhere(q, rng, 8);
}

TEST(LinialReciprocal, RandomDivisorsAndNumerators) {
  Rng rng(72);
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t q = rng() >> (rng() % 63);
    if (q < 2) q = 2;
    const detail::LinialReciprocal r(q);
    for (int j = 0; j < 8; ++j) {
      expect_exact(r, rng());
      expect_exact(r, rng() >> (rng() % 64));
    }
  }
}

// Every field (q, d) that linial_choose_field picks for Delta in 1..4096 and
// max_val = 2^k - 1, k <= 64. Enumerating them by calling the field choice
// for all 262144 arguments costs tens of seconds (a trial-division prime
// walk per call), so the set is built with the same rule over a sieve:
// for fixed Delta the chosen q never decreases as max_val grows (d(q) only
// grows), so each k resumes the prime walk where k - 1 stopped. The walk is
// checked against linial_choose_field itself on a spread of Delta.
TEST(LinialReciprocal, EveryFieldTheReductionChooses) {
  constexpr std::uint64_t kSieve = 1 << 16;
  std::vector<bool> composite(kSieve + 1, false);
  std::vector<std::uint64_t> primes;
  for (std::uint64_t i = 2; i <= kSieve; ++i) {
    if (composite[i]) continue;
    primes.push_back(i);
    for (std::uint64_t j = i * i; j <= kSieve; j += i) composite[j] = true;
  }
  std::set<std::pair<std::uint64_t, int>> fields;
  int checked = 0;
  for (int delta = 1; delta <= 4096; ++delta) {
    std::size_t at = static_cast<std::size_t>(
        std::lower_bound(primes.begin(), primes.end(),
                         static_cast<std::uint64_t>(std::max(2, delta + 2))) -
        primes.begin());
    for (int k = 1; k <= 64; ++k) {
      const std::uint64_t max_val =
          k == 64 ? kMax64 : (std::uint64_t{1} << k) - 1;
      int d = 0;
      for (;; ++at) {
        ASSERT_LT(at, primes.size()) << "sieve too small";
        d = detail::linial_degree_for(primes[at], max_val);
        if (primes[at] > static_cast<std::uint64_t>(delta) *
                             static_cast<std::uint64_t>(d))
          break;
      }
      fields.emplace(primes[at], d);
      if (delta <= 96 || delta % 97 == 0 || delta == 4096) {
        const auto chosen = detail::linial_choose_field(delta, max_val);
        ASSERT_EQ(chosen.first, primes[at]) << "delta=" << delta << " k=" << k;
        ASSERT_EQ(chosen.second, d) << "delta=" << delta << " k=" << k;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 8000);
  Rng rng(73);
  for (const auto& [q, d] : fields) {
    expect_exact_everywhere(q, rng, 4);
    // The stage's decomposition chain: d + 1 digits of a 64-bit color.
    const detail::LinialReciprocal r(q);
    for (std::uint64_t c : {kMax64, rng()}) {
      for (int i = 0; i <= d; ++i) {
        expect_exact(r, c);
        c = r.div(c);
      }
    }
  }
}

}  // namespace
}  // namespace deltacolor
