// Double-buffered synchronous execution engine for LOCAL-model node
// programs, with multi-threaded stepping.
//
// Fidelity contract: in round t, a node's transition function sees only its
// own round-(t-1) state and the round-(t-1) states of its direct neighbors
// (unbounded messages in LOCAL make "publish full state" the most general
// message). The engine enforces this structurally: transitions write into a
// shadow buffer that becomes visible only after every node has stepped.
//
// Execution engine. Each run entry is a template over the step functor, so
// the per-node call is devirtualized and inlined (no std::function in the
// hot loop). Nodes are partitioned into contiguous chunks across a thread
// pool each round; because every transition writes only its own slot of
// the shadow buffer, the schedule cannot affect results — states are
// bit-identical across worker counts and to the serial engine. Each stage
// picks its run entry in code: full sweeps (run_until, run_rounds), keyed
// rounds that step each bucket of a schedule (run_keyed), or live rounds
// that step only the nodes not yet done (run_live_until). The worker count
// is the engine's only option.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "graph/graph.hpp"

namespace deltacolor {

/// Execution options for SyncRunner (and the engine algorithms built on
/// it). The default reproduces the library-wide default worker count
/// (DELTACOLOR_THREADS / hardware_concurrency).
struct EngineOptions {
  /// Worker threads stepping nodes each round. 0 = library default
  /// (ThreadPool::default_workers()), 1 = serial in the calling thread.
  int num_threads = 0;
};

/// How many bucket positions ahead of the node being stepped a keyed round
/// prefetches that node's adjacency row and state slot (host graphs only).
/// Distances 4, 8, 16 and 32 measured alike on phase 4B's keyed rounds
/// (EXPERIMENTS.md, "deg+1 over the active list").
inline constexpr std::size_t kKeyedPrefetchDistance = 8;

/// `GraphT` is any type modeling the GraphView concept (graph_view.hpp):
/// the host Graph (the default), or the lazy LineGraphView — the engine
/// itself never materializes virtual-graph adjacency. Runs
/// over part of a host graph keep host-indexed states and take the part as
/// an ascending node list (run_keyed, mutate_states).
template <typename State, typename GraphT = Graph>
class SyncRunner {
 public:
  /// The per-node view a transition function receives.
  class View {
   public:
    View(const GraphT& g, NodeId v, const std::vector<State>& prev,
         int round)
        : g_(g), v_(v), prev_(prev), round_(round) {}

    NodeId node() const { return v_; }
    std::uint64_t id() const { return g_.id(v_); }
    int degree() const { return g_.degree(v_); }

    /// Contiguous sorted neighbor span — host graphs only; lazy views
    /// enumerate via for_each_neighbor instead.
    std::span<const NodeId> neighbors() const
      requires requires(const GraphT& g, NodeId v) { g.neighbors(v); }
    {
      return g_.neighbors(v_);
    }

    /// fn(u) for every neighbor u of this node in the (possibly virtual)
    /// graph — the view-generic way to read the neighborhood.
    template <typename Fn>
    void for_each_neighbor(Fn&& fn) const {
      g_.for_each_neighbor(v_, fn);
    }

    /// The round being computed's predecessor index: 0 in the first
    /// executed round. Global lockstep round counters are shared knowledge
    /// in a synchronous network, so exposing this does not weaken the
    /// LOCAL fidelity contract.
    int round() const { return round_; }

    const State& self() const { return prev_[v_]; }

    /// Round-(t-1) state of a *neighbor* u. Adjacency is checked in debug
    /// builds when the graph type supports the query — reading a
    /// non-neighbor's state would break the LOCAL model.
    const State& neighbor(NodeId u) const {
      if constexpr (requires(const GraphT& g) { g.has_edge(v_, u); }) {
        DC_DCHECK(g_.has_edge(v_, u));
      }
      return prev_[u];
    }

   private:
    const GraphT& g_;
    NodeId v_;
    const std::vector<State>& prev_;
    int round_;
  };

  SyncRunner(const GraphT& g, std::vector<State> initial,
             EngineOptions options = {})
      : g_(g), cur_(std::move(initial)) {
    DC_CHECK(cur_.size() == g_.num_nodes());
    // Serial runs step inline. Otherwise the cached process-wide pool for
    // this worker count (0: the default pool): runners are constructed per
    // primitive call, and spawning/joining OS threads per runner would
    // swamp the per-round parallel gains in composed pipelines.
    if (options.num_threads != 1)
      pool_ = &ThreadPool::shared(options.num_threads);
  }

  SyncRunner(const SyncRunner&) = delete;
  SyncRunner& operator=(const SyncRunner&) = delete;

  /// Runs full sweeps until every node satisfies `done_node(v, state_v)`
  /// — a halting predicate that decomposes as a conjunction over nodes —
  /// or until `max_rounds`; returns rounds executed.
  /// StepFn: State(const View&). DoneNodeFn: bool(NodeId, const State&).
  template <typename StepFn, typename DoneNodeFn>
  int run_until(int max_rounds, StepFn&& step, DoneNodeFn&& done_node) {
    return run(max_rounds, step, [&] { return all_done(done_node); });
  }

  /// Runs exactly `max_rounds` full sweeps (schedule-driven stages: class
  /// sweeps, KW offset schedules, bit peeling).
  template <typename StepFn>
  int run_rounds(int max_rounds, StepFn&& step) {
    return run(max_rounds, step, [] { return false; });
  }

  /// run_until for protocols whose done nodes are fixpoints, stepping only
  /// the nodes not yet done (the live list). Contract, the caller's to
  /// keep: when done_node(v, s) holds, v's step returns s unchanged,
  /// whatever the round and whatever its neighbors hold — so a done node
  /// stays done. Rounds and final states then equal run_until's with the
  /// same step and predicate, at every worker count. One ascending pass
  /// lists the nodes not done at entry (nodes done at entry are never
  /// stepped); each round steps the list into a side buffer indexed by list
  /// position, so a step reads only round-(r-1) states and a worker's slice
  /// depends only on the list length, then writes the new states back and
  /// compacts the list, in order, to the nodes still not done. A round
  /// costs the size of the list, not n: the color trials' undecided
  /// remainder thins fast. No allocation once the buffers are warm.
  template <typename StepFn, typename DoneNodeFn>
  int run_live_until(int max_rounds, StepFn&& step, DoneNodeFn&& done_node) {
    // One allocation of n slots, not a doubling series: the series leaves
    // freed buffers resident in the heap once the allocator's mmap
    // threshold has risen, which raised the trials' peak RSS.
    live_.clear();
    live_.reserve(cur_.size());
    for (std::size_t v = 0; v < cur_.size(); ++v)
      if (!done_node(static_cast<NodeId>(v), cur_[v]))
        live_.push_back(static_cast<NodeId>(v));
    if (live_next_.size() < live_.size()) live_next_.resize(live_.size());
    int rounds = 0;
    while (rounds < max_rounds && !live_.empty()) {
      const int r = rounds;
      each_chunk(live_.size(), [&](int, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          live_next_[i] = step(View(g_, live_[i], cur_, r));
      });
      std::size_t kept = 0;
      for (std::size_t i = 0; i < live_.size(); ++i) {
        const NodeId v = live_[i];
        cur_[v] = std::move(live_next_[i]);
        if (!done_node(v, cur_[v])) live_[kept++] = v;
      }
      live_.resize(kept);
      ++rounds;
    }
    return rounds;
  }

  /// Keyed sparse rounds for schedule-driven stages in which every node
  /// acts in at most one round. Contract: node v's step returns self() in
  /// every round except round key(v, state of v at entry); a key outside
  /// [0, rounds) — conventionally -1 — means never. Runs exactly `rounds`
  /// rounds like run_rounds, with bit-identical results for any step that
  /// honors the contract, but round r steps only the nodes keyed r: one
  /// counting sort per call buckets the nodes (ascending within a bucket),
  /// and each round steps its bucket into a side buffer before writing the
  /// new states back, so a bucket reads only round-(r-1) states. No
  /// allocation per round. KeyFn: int(NodeId, const State&), evaluated once
  /// per candidate per call (its bucket is stored in the first pass).
  ///
  /// `nodes`, when given, is an ascending list of the only candidates: a
  /// node off it is never keyed and never acts, as if keyed -1, so a stage
  /// over part of the graph costs O(list), not O(n). Without it every node
  /// is a candidate.
  template <typename KeyFn, typename StepFn>
  int run_keyed(int rounds, KeyFn&& key, StepFn&& step,
                std::optional<std::span<const NodeId>> nodes = std::nullopt) {
    const std::size_t buckets = rounds > 0 ? static_cast<std::size_t>(rounds) : 0;
    const std::size_t candidates = nodes ? nodes->size() : g_.num_nodes();
    const NodeId* list = nodes ? nodes->data() : nullptr;
    keyed_start_.assign(buckets + 2, 0);
    keyed_bucket_.resize(candidates);
    for (std::size_t i = 0; i < candidates; ++i) {
      const NodeId v = list != nullptr ? list[i] : static_cast<NodeId>(i);
      const int k = key(v, cur_[v]);
      const std::size_t b =
          k >= 0 && k < rounds ? static_cast<std::size_t>(k) : buckets;
      keyed_bucket_[i] = static_cast<std::uint32_t>(b);
      ++keyed_start_[b + 1];
    }
    std::size_t widest = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      widest = std::max(widest, keyed_start_[b + 1]);
      keyed_start_[b + 1] += keyed_start_[b];
    }
    keyed_nodes_.resize(keyed_start_[buckets]);
    keyed_fill_.assign(keyed_start_.begin(), keyed_start_.end() - 1);
    for (std::size_t i = 0; i < candidates; ++i) {
      const std::size_t b = keyed_bucket_[i];
      if (b < buckets)
        keyed_nodes_[keyed_fill_[b]++] =
            list != nullptr ? list[i] : static_cast<NodeId>(i);
    }
    if (keyed_next_.size() < widest) keyed_next_.resize(widest);
    for (int r = 0; r < rounds; ++r) {
      const std::size_t begin = keyed_start_[static_cast<std::size_t>(r)];
      const std::size_t size =
          keyed_start_[static_cast<std::size_t>(r) + 1] - begin;
      if (size == 0) continue;
      const NodeId* bucket = keyed_nodes_.data() + begin;
      each_chunk(size, [&](int, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          // A bucket is a sparse walk over the node range: fetch the row
          // and slot of a node further down the bucket while this one
          // steps.
          if constexpr (std::is_same_v<GraphT, Graph>) {
            if (i + kKeyedPrefetchDistance < e) {
              const NodeId ahead = bucket[i + kKeyedPrefetchDistance];
              __builtin_prefetch(g_.neighbors(ahead).data());
              __builtin_prefetch(cur_.data() + ahead);
            }
          }
          keyed_next_[i] = step(View(g_, bucket[i], cur_, r));
        }
      });
      for (std::size_t i = 0; i < size; ++i)
        cur_[bucket[i]] = std::move(keyed_next_[i]);
    }
    return rounds;
  }

  const std::vector<State>& states() const { return cur_; }
  std::vector<State> take_states() { return std::move(cur_); }

  /// Zero-round local relabeling: every node applies `fn` to its own state
  /// with no communication (e.g. KW palette compaction between stages).
  /// Runs on the worker pool; slots are disjoint, so results are
  /// schedule-independent like regular rounds. `nodes`, when given, is an
  /// ascending list of the only nodes relabeled, as in run_keyed.
  template <typename Fn>
  void mutate_states(Fn&& fn,
                     std::optional<std::span<const NodeId>> nodes = std::nullopt) {
    const NodeId* list = nodes ? nodes->data() : nullptr;
    each_chunk(nodes ? nodes->size() : cur_.size(),
               [&](int, std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   const std::size_t v = list != nullptr ? list[i] : i;
                   cur_[v] = fn(std::move(cur_[v]));
                 }
               });
  }

 private:
  /// Full sweeps while `done()` is false, up to `max_rounds`; returns the
  /// rounds executed.
  template <typename StepFn, typename DoneFn>
  int run(int max_rounds, StepFn& step, DoneFn&& done) {
    const NodeId n = g_.num_nodes();
    nxt_.resize(cur_.size());  // the shadow buffer; keyed and live runs
                               // need none
    int rounds = 0;
    while (rounds < max_rounds && !done()) {
      const int r = rounds;
      each_chunk(n, [&](int, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const NodeId v = static_cast<NodeId>(i);
          nxt_[v] = step(View(g_, v, cur_, r));
        }
      });
      cur_.swap(nxt_);
      ++rounds;
    }
    return rounds;
  }

  template <typename DoneNodeFn>
  bool all_done(DoneNodeFn& done_node) const {
    for (std::size_t v = 0; v < cur_.size(); ++v)
      if (!done_node(static_cast<NodeId>(v), cur_[v])) return false;
    return true;
  }

  /// Runs fn(worker, begin, end) over contiguous chunks of [0, size), one
  /// per worker (worker 0 owns the whole range when serial, i.e. when
  /// the runner has no pool); results must not depend on the worker
  /// index. The pool gets `fn` by std::ref, so its std::function never
  /// copies (or heap-allocates) the step's closure. Worker w's chunk is
  /// [w*size/W, (w+1)*size/W) for W workers, a function of size and W
  /// only: every full sweep hands a worker the same node range, so the
  /// CSR and state pages it touched last round stay its own.
  template <typename ChunkFn>
  void each_chunk(std::size_t size, ChunkFn&& fn) {
    if (pool_ == nullptr || pool_->num_workers() == 1) {
      fn(0, std::size_t{0}, size);
      return;
    }
    pool_->for_range(0, size, std::ref(fn));
  }

  const GraphT& g_;
  ThreadPool* pool_ = nullptr;
  std::vector<State> cur_;
  std::vector<State> nxt_;
  // Keyed rounds: bucket bounds (size buckets + 2; the last bucket holds
  // the never-keyed nodes and is not materialized), each candidate's
  // bucket, fill cursors, the bucketed nodes, and the side buffer a bucket
  // is stepped into.
  std::vector<std::size_t> keyed_start_;
  std::vector<std::uint32_t> keyed_bucket_;
  std::vector<std::size_t> keyed_fill_;
  std::vector<NodeId> keyed_nodes_;
  std::vector<State> keyed_next_;
  // Live rounds: the ascending list of nodes not yet done, and the side
  // buffer its nodes are stepped into (indexed by list position).
  std::vector<NodeId> live_;
  std::vector<State> live_next_;
};

}  // namespace deltacolor
