// Linial's O(log* n) color reduction [Lin92].
//
// From any proper k-coloring (initially the unique identifiers), one round
// of communication reduces to a proper q^2-coloring, where q is the
// smallest prime with q > Delta * d and q^(d+1) > k: each node interprets
// its color as a polynomial of degree <= d over F_q and picks an evaluation
// point on which it differs from every neighbor (at most d collisions per
// neighbor, so Delta*d < q points are excluded). Iterating reaches the
// fixed point q0^2, q0 ~ Delta, in O(log* k) rounds.
//
// The core reduction is generic over any GraphView (graph_view.hpp), so it
// runs unchanged on host graphs, induced subgraphs, power graphs, and line
// graphs — all without materializing the virtual graph. Each stage is one
// synchronous round stepped through SyncRunner (multi-worker, bit-identical
// across worker counts); rounds are charged to the LocalContext's active
// phase with the view's dilation factor.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "local/context.hpp"
#include "local/sync_runner.hpp"

namespace deltacolor {

struct LinialResult {
  std::vector<Color> color;  ///< proper coloring, palette {0..num_colors-1}
  int num_colors = 0;
  int rounds = 0;  ///< virtual rounds of the view (not dilation-scaled)
};

namespace detail {

std::uint64_t linial_pow_sat(std::uint64_t q, int e);
int linial_degree_for(std::uint64_t q, std::uint64_t max_val);
/// Smallest prime q with q > delta * degree and q^(degree+1) > max_val.
std::pair<std::uint64_t, int> linial_choose_field(int delta,
                                                  std::uint64_t max_val);

/// The calling thread's scratch for the step's collision path, at least
/// `words` long. It only grows, and one buffer per thread serves every
/// view type. The step writes each word before it reads it within the
/// same call, so no value crosses a round and nothing needs a reset.
std::uint32_t* linial_scratch(std::size_t words);

/// Exact division by a fixed q >= 2 through a precomputed reciprocal
/// (Lemire, Kaser and Kurz, "Faster Remainder by Direct Computation"):
/// with M = ceil(2^128 / q), floor(n / q) = floor(M * n / 2^128) for every
/// 64-bit n. Writing M * q = 2^128 + e with 0 <= e < q, the error term
/// n * e / 2^128 stays below 1 because n < 2^64 and e < q < 2^64, so one
/// form covers the 64-bit LOCAL ids of the first stage and every Horner
/// intermediate (< q^2) alike. Two 64x64->128 multiplies per quotient and
/// one more per remainder replace the hardware divide.
class LinialReciprocal {
 public:
  explicit LinialReciprocal(std::uint64_t q) : q_(q) {
    DC_DCHECK(q >= 2);
    using u128 = unsigned __int128;
    const u128 m = ~u128{0} / q + 1;  // ceil(2^128 / q) for q >= 2
    m_lo_ = static_cast<std::uint64_t>(m);
    m_hi_ = static_cast<std::uint64_t>(m >> 64);
  }

  std::uint64_t divisor() const { return q_; }

  std::uint64_t div(std::uint64_t n) const {
    using u128 = unsigned __int128;
    const u128 lo = static_cast<u128>(m_lo_) * n;
    const u128 hi = static_cast<u128>(m_hi_) * n + (lo >> 64);
    return static_cast<std::uint64_t>(hi >> 64);
  }

  std::uint64_t mod(std::uint64_t n) const { return n - div(n) * q_; }

 private:
  std::uint64_t q_;
  std::uint64_t m_lo_ = 0;
  std::uint64_t m_hi_ = 0;
};

}  // namespace detail

/// Generic reduction over any GraphView. `initial` must be a proper
/// coloring of the view (pairwise distinct along every view edge).
/// Charges rounds * view.dilation() to the context's active phase
/// ("linial" when the caller opened none).
template <GraphView ViewT>
LinialResult linial_reduce(const ViewT& view,
                           const std::vector<std::uint64_t>& initial,
                           LocalContext& ctx) {
  DefaultPhase scope(ctx, "linial");
  const NodeId n = view.num_nodes();
  LinialResult res;
  res.color.assign(n, 0);
  if (n == 0) {
    res.num_colors = 1;
    return res;
  }
  DC_CHECK(initial.size() == n);

  std::uint64_t max_val = 0;
  for (const std::uint64_t c : initial) max_val = std::max(max_val, c);
  const int max_degree = view.max_degree();

  // Every stage is one engine round with its own field (q, d).
  SyncRunner<std::uint64_t, ViewT> runner(view, initial, ctx.engine());
  std::atomic<bool> failed{false};

  // One stage = one engine round with stage-specific (q, d); the step
  // closure is rebuilt per stage with those scalars (and q's reciprocal)
  // captured by value. Once each worker's scratch has grown to the
  // largest neighborhood, the step allocates nothing, and it keeps no
  // per-node state between rounds.
  const auto make_step = [&](std::uint64_t q, int d) {
    return [rq = detail::LinialReciprocal(q), q, d,
            &failed](const auto& v) -> std::uint64_t {
    // Point x = 0 first: every polynomial evaluates there to its constant
    // digit c mod q, so one reduction per neighbor settles the node unless
    // some neighbor shares that digit.
    const std::uint64_t mine0 = rq.mod(v.self());
    bool collides = false;
    v.for_each_neighbor([&](NodeId u) {
      if (u != v.node() && rq.mod(v.neighbor(u)) == mine0) collides = true;
    });
    if (!collides) return mine0;  // x * q + p(x) at x = 0
    // Decompose the closed neighborhood's colors into base-q coefficient
    // vectors (the "message" each neighbor publishes is its polynomial).
    // degree() + 1 bounds the neighbor rows, so the node's own row and
    // theirs are taken from the worker's scratch up front.
    const std::size_t terms = static_cast<std::size_t>(d) + 1;
    std::uint32_t* self_coeff = detail::linial_scratch(
        (static_cast<std::size_t>(v.degree()) + 2) * terms);
    std::uint32_t* nbr_coeff = self_coeff + terms;
    const auto decompose = [&](std::uint64_t c, std::uint32_t* out) {
      for (std::size_t i = 0; i < terms; ++i) {
        const std::uint64_t next = rq.div(c);
        out[i] = static_cast<std::uint32_t>(c - next * q);
        c = next;
      }
    };
    decompose(v.self(), self_coeff);
    std::size_t nbrs = 0;
    v.for_each_neighbor([&](NodeId u) {
      if (u == v.node()) return;
      decompose(v.neighbor(u), nbr_coeff + nbrs * terms);
      ++nbrs;
    });
    const auto eval = [&](const std::uint32_t* a, std::uint64_t x) {
      std::uint64_t acc = 0;
      for (int i = d; i >= 0; --i) acc = rq.mod(acc * x + a[i]);
      return acc;
    };
    // Scan the remaining evaluation points until one separates this node
    // from every neighbor; guaranteed to exist since bad points number
    // <= Delta*d < q.
    for (std::uint64_t x = 1; x < q; ++x) {
      const std::uint64_t mine = eval(self_coeff, x);
      bool ok = true;
      for (std::size_t j = 0; j < nbrs && ok; ++j) {
        if (eval(nbr_coeff + j * terms, x) == mine) ok = false;
      }
      if (ok) return x * q + mine;
    }
    failed.store(true, std::memory_order_relaxed);
    return v.self();
    };
  };
  for (;;) {
    const auto [q, d] = detail::linial_choose_field(max_degree, max_val);
    if (q * q > max_val) break;  // fixed point: no further progress
    runner.run_rounds(1, make_step(q, d));
    DC_CHECK_MSG(!failed.load(std::memory_order_relaxed),
                 "Linial: no collision-free point (q=" << q << ")");
    max_val = q * q - 1;
    ++res.rounds;
    DC_CHECK_MSG(res.rounds < 64, "Linial failed to converge");
  }

  res.num_colors = static_cast<int>(max_val + 1);
  const auto& states = runner.states();
  for (NodeId v = 0; v < n; ++v)
    res.color[v] = static_cast<Color>(states[v]);
  ctx.charge(res.rounds, view.dilation());
  return res;
}

/// O(Delta^2)-coloring of the view in O(log* n) rounds from its LOCAL
/// identifiers (works on any GraphView; "linial" default phase).
template <GraphView ViewT>
LinialResult linial_coloring(const ViewT& view, LocalContext& ctx) {
  DefaultPhase scope(ctx, "linial");
  const NodeId n = view.num_nodes();
  std::vector<std::uint64_t> initial(n);
  for (NodeId v = 0; v < n; ++v) initial[v] = view.id(v);
  return linial_reduce(view, initial, ctx);
}

/// Proper *edge* coloring of g with an O(Delta^2)-sized palette, indexed by
/// EdgeId, computed on the lazy LineGraphView (the line graph is never
/// materialized): a vertex Linial coloring is composed with per-endpoint
/// port numbers into a proper (huge-palette) edge coloring, which the
/// generic reduction then shrinks. Costs O(log* n) rounds; each line-graph
/// round dilates to 2 real rounds (charged via the view's dilation).
LinialResult linial_edge_coloring(const Graph& g, LocalContext& ctx);

}  // namespace deltacolor
