// Double-buffered synchronous execution engine for LOCAL-model node
// programs, with optional multi-threaded stepping and sparse activation.
//
// Fidelity contract: in round t, a node's transition function sees only its
// own round-(t-1) state and the round-(t-1) states of its direct neighbors
// (unbounded messages in LOCAL make "publish full state" the most general
// message). The engine enforces this structurally: transitions write into a
// shadow buffer that becomes visible only after every node has stepped.
//
// Execution engine. `run()` is a template over the step functor, so the
// per-node call is devirtualized and inlined (no std::function in the hot
// loop). Nodes are partitioned into contiguous chunks across a thread pool
// each round; because every transition writes only its own slot of the
// shadow buffer, the schedule cannot affect results — states are
// bit-identical across worker counts and to the serial engine.
//
// Frontier mode (opt-in, EngineOptions::frontier) re-steps only nodes whose
// *closed neighborhood* changed state in the previous round. This is sound
// whenever the transition is a function of the closed neighborhood's
// previous states (plus node identity and the global round number, provided
// quiesced states are fixpoints for every later round — true for all
// engine algorithms in this library, whose decided/committed nodes return
// their state unchanged regardless of the round). Unchanged closed
// neighborhood => unchanged output, so skipped nodes already hold the right
// state. Many phases (color trials, MIS elimination, color reduction)
// quiesce region-by-region, so late rounds touch a small frontier; round
// counts and fixpoints are identical to full sweeps. The engine is
// adaptive: while the changed set is wide it keeps sweeping everyone
// (list bookkeeping would cost more than it saves) and drops to the
// sparse active list once the frontier shrinks below a degree-aware
// cutoff, switching back if it re-widens.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "graph/graph.hpp"
#include "local/backend.hpp"
#include "local/faults.hpp"
#include "local/shard_runner.hpp"
#include "local/transport.hpp"

namespace deltacolor {

/// Execution options for SyncRunner (and the engine algorithms built on
/// it). The defaults reproduce the library-wide default worker count
/// (DELTACOLOR_THREADS / hardware_concurrency) with full sweeps.
struct EngineOptions {
  /// Worker threads stepping nodes each round. 0 = library default
  /// (ThreadPool::default_workers()), 1 = serial in the calling thread.
  int num_threads = 0;
  /// Re-step only nodes whose closed neighborhood changed last round.
  /// Requires State to be equality-comparable; results and round counts
  /// are identical to full sweeps (see header comment for the soundness
  /// argument).
  bool frontier = false;
  /// Stage placement (backend.hpp). Non-owning; nullptr = in-process. Only
  /// run_until / run_rounds stages on prepared host graphs with
  /// trivially-copyable equality-comparable State can shard; everything
  /// else silently runs in-process, so results never depend on this field.
  ExecutionBackend* backend = nullptr;
};

/// A borrowed (pointer, length) view over trivially-copyable read-only
/// data. SyncRunner::ship() returns one whose pointer targets the shard
/// plan's shared halo plane (or the original vector when no pool applies),
/// so a step functor capturing it by value stays valid inside pool workers
/// — unlike a captured `const std::vector<T>&`, whose heap buffer a
/// post-fork worker has never seen.
template <typename T>
struct ShardSpan {
  const T* data = nullptr;
  std::size_t size = 0;
  const T& operator[](std::size_t i) const { return data[i]; }
  const T* begin() const { return data; }
  const T* end() const { return data + size; }
  bool empty() const { return size == 0; }
};

/// A sticky one-byte failure flag whose cell lives in the shared halo
/// plane (SyncRunner::ship_flag), so pool workers setting it are visible
/// to the coordinator; the runner ORs every shipped cell back into its
/// original std::atomic<bool> after each run. Relaxed ordering suffices:
/// the flag is monotone (never cleared) and only read after the stage's
/// final-state handshake.
struct ShardFlag {
  std::atomic<std::uint8_t>* cell = nullptr;
  void set() const { cell->store(1, std::memory_order_relaxed); }
  bool test() const { return cell->load(std::memory_order_relaxed) != 0; }
};

/// Marker wrapper asserting a step/done functor is safe to dispatch to a
/// forked pool worker by shipping its raw bytes: every capture is a value,
/// the pre-prepare host graph by reference, or a shipped ShardSpan /
/// ShardFlag / raw pointer into the plane — never a coordinator stack or
/// post-prepare heap address. Unmarked functors always run in-process, so
/// adding the sharded path to a call site is an explicit, auditable edit.
template <typename Fn>
struct ShardSafe : Fn {
  explicit ShardSafe(Fn fn) : Fn(std::move(fn)) {}
};

template <typename Fn>
ShardSafe<std::decay_t<Fn>> shard_safe(Fn&& fn) {
  return ShardSafe<std::decay_t<Fn>>(std::forward<Fn>(fn));
}

template <typename Fn>
inline constexpr bool is_shard_safe_v = false;
template <typename Fn>
inline constexpr bool is_shard_safe_v<ShardSafe<Fn>> = true;

template <typename State, typename StepFn, typename DoneFn>
void shard_stage_entry(const WorkerStageCtx& ctx);

/// `GraphT` is any type modeling the GraphView concept (graph_view.hpp):
/// the host Graph (the default), or a lazy InducedSubgraphView /
/// PowerGraphView / LineGraphView — the engine itself never materializes
/// virtual-graph adjacency.
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

  /// Transition: given the view of round t-1, produce the round-t state.
  /// (Type-erased alias for storage; run() itself is a template so direct
  /// lambdas are devirtualized.)
  using Step = std::function<State(const View&)>;
  /// Global halting predicate, evaluated between rounds by the harness.
  /// (This is a simulation-harness convenience, not node knowledge; all
  /// algorithms in the library also have explicit round bounds.)
  using Done = std::function<bool(const std::vector<State>&)>;

  SyncRunner(const GraphT& g, std::vector<State> initial,
             EngineOptions options = {})
      : g_(g), options_(options), cur_(std::move(initial)) {
    DC_CHECK(cur_.size() == g_.num_nodes());
    if (options_.num_threads == 1) {
      pool_ = nullptr;  // serial: no pool, step inline
    } else if (options_.num_threads <= 0) {
      pool_ = &ThreadPool::global();
    } else {
      // Cached process-wide pool for this worker count: runners are
      // constructed per primitive call, and spawning/joining OS threads
      // per runner would swamp the per-round parallel gains in composed
      // pipelines (see ThreadPool::shared).
      pool_ = &ThreadPool::shared(options_.num_threads);
    }
  }

  SyncRunner(const SyncRunner&) = delete;
  SyncRunner& operator=(const SyncRunner&) = delete;

  ~SyncRunner() {
    // The stage slot (and with it the plane's ship arena) is held until
    // the runner dies: multi-stage runners re-read shipped data across
    // many run_* calls, so per-stage release would let a concurrent cell
    // reset the arena under them.
    if (slot_pool_ != nullptr) slot_pool_->slot_release();
  }

  /// Runs until `done` or `max_rounds`; returns rounds executed.
  /// StepFn: State(const View&). DoneFn: bool(const std::vector<State>&).
  template <typename StepFn, typename DoneFn>
  int run(int max_rounds, StepFn&& step, DoneFn&& done) {
    int rounds = 0;
    if (options_.frontier) {
      if constexpr (std::equality_comparable<State>) {
        rounds = run_frontier(max_rounds, step, done);
      } else {
        DC_CHECK_MSG(false,
                     "frontier mode requires an equality-comparable State");
      }
    } else {
      rounds = run_full(max_rounds, step, done);
    }
    sync_flags();
    return rounds;
  }

  /// Runs until every node satisfies `done_node(v, state_v)` — a halting
  /// predicate that decomposes as a conjunction over nodes, which is what
  /// every engine algorithm in the library actually checks — or until
  /// `max_rounds`. Semantically identical to run() with the equivalent
  /// vector predicate; the decomposed form is what lets a sharded backend
  /// evaluate halting with one AND-bit per shard instead of gathering full
  /// state every round. DoneNodeFn: bool(NodeId, const State&).
  template <typename StepFn, typename DoneNodeFn>
  int run_until(int max_rounds, StepFn&& step, DoneNodeFn&& done_node) {
    // The sharded path additionally requires the step functor (and any
    // non-trivial done predicate) to be explicitly shard_safe-marked: only
    // audited closures ever have their bytes shipped to a pool worker. A
    // captureless done predicate is safe by construction.
    if constexpr (kShardable && is_shard_safe_v<std::decay_t<StepFn>> &&
                  (is_shard_safe_v<std::decay_t<DoneNodeFn>> ||
                   std::is_empty_v<std::decay_t<DoneNodeFn>>)) {
      if (const ShardPlan* plan = shard_plan()) {
        if (plan->pool != nullptr && !aux_overflow_)
          return run_sharded(*plan, max_rounds, step, done_node);
        note_unshardable();  // shipped aux overflowed the plane's arena
      }
    } else {
      note_unshardable();
    }
    return run(max_rounds, step, [&](const std::vector<State>& states) {
      for (std::size_t v = 0; v < states.size(); ++v)
        if (!done_node(static_cast<NodeId>(v), states[v])) return false;
      return true;
    });
  }

  /// Runs exactly `max_rounds` rounds (schedule-driven stages: class
  /// sweeps, KW offset schedules, bit peeling). Equivalent to run() with a
  /// constant-false predicate, and shardable like run_until.
  template <typename StepFn>
  int run_rounds(int max_rounds, StepFn&& step) {
    if constexpr (kShardable && is_shard_safe_v<std::decay_t<StepFn>>) {
      const auto never_node = [](NodeId, const State&) { return false; };
      if (const ShardPlan* plan = shard_plan()) {
        if (plan->pool != nullptr && !aux_overflow_)
          return run_sharded(*plan, max_rounds, step, never_node);
        note_unshardable();
      }
    } else {
      note_unshardable();
    }
    return run(max_rounds, step,
               [](const std::vector<State>&) { return false; });
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
  /// allocation per round. KeyFn: int(NodeId, const State&), a pure
  /// function (the bucketing evaluates it twice per node).
  ///
  /// Always in-process: under a sharding backend the stage is counted as a
  /// fallback and never dispatched. Frontier mode is irrelevant here.
  template <typename KeyFn, typename StepFn>
  int run_keyed(int rounds, KeyFn&& key, StepFn&& step) {
    note_unshardable();
    const NodeId n = g_.num_nodes();
    const std::size_t buckets = rounds > 0 ? static_cast<std::size_t>(rounds) : 0;
    const auto bucket_of = [&](NodeId v) -> std::size_t {
      const int k = key(v, cur_[v]);
      return k >= 0 && k < rounds ? static_cast<std::size_t>(k) : buckets;
    };
    keyed_start_.assign(buckets + 2, 0);
    for (NodeId v = 0; v < n; ++v) ++keyed_start_[bucket_of(v) + 1];
    std::size_t widest = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      widest = std::max(widest, keyed_start_[b + 1]);
      keyed_start_[b + 1] += keyed_start_[b];
    }
    keyed_nodes_.resize(keyed_start_[buckets]);
    keyed_fill_.assign(keyed_start_.begin(), keyed_start_.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t b = bucket_of(v);
      if (b < buckets) keyed_nodes_[keyed_fill_[b]++] = v;
    }
    if (keyed_next_.size() < widest) keyed_next_.resize(widest);
    for (int r = 0; r < rounds; ++r) {
      if (FaultInjector::armed())
        FaultInjector::global().on_engine_round(r);
      const std::size_t begin = keyed_start_[static_cast<std::size_t>(r)];
      const std::size_t size =
          keyed_start_[static_cast<std::size_t>(r) + 1] - begin;
      if (size == 0) continue;
      const NodeId* nodes = keyed_nodes_.data() + begin;
      each_chunk(size, [&](int, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
          keyed_next_[i] = step(View(g_, nodes[i], cur_, r));
      });
      for (std::size_t i = 0; i < size; ++i)
        cur_[nodes[i]] = std::move(keyed_next_[i]);
    }
    sync_flags();
    return rounds;
  }

  const std::vector<State>& states() const { return cur_; }
  std::vector<State> take_states() { return std::move(cur_); }

  /// Copies `data` into the shard plan's shared ship arena and returns a
  /// span a shard_safe step functor may capture by value. When no pool
  /// applies (no backend, unprepared graph, lazy view, arena full) the
  /// span aliases `data` itself — the functor then only ever runs
  /// in-process, where the original vector is live. `data` must outlive
  /// the runner either way and must not be mutated between run_* calls
  /// (the worker reads the shipped copy; in-process reads the original).
  template <typename T>
  ShardSpan<T> ship(const std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (ShardWorkerPool* pool = ship_pool()) {
      const std::size_t bytes = data.size() * sizeof(T);
      if (void* dst = pool->aux_alloc(bytes, alignof(T))) {
        std::memcpy(dst, data.data(), bytes);
        return ShardSpan<T>{static_cast<const T*>(dst), data.size()};
      }
      aux_overflow_ = true;  // subsequent stages fall back in-process
    }
    return ShardSpan<T>{data.data(), data.size()};
  }

  /// Registers `orig` for cross-process reporting: returns a ShardFlag
  /// whose cell lives in the shared plane (or runner-local storage on the
  /// fallback paths); after every run_* the runner ORs each cell back into
  /// its original atomic. Unlike capturing `&orig`, the returned value is
  /// safe inside pool workers.
  ShardFlag ship_flag(std::atomic<bool>& orig) {
    std::atomic<std::uint8_t>* cell = nullptr;
    if (ShardWorkerPool* pool = ship_pool()) {
      if (void* p = pool->aux_alloc(sizeof(std::atomic<std::uint8_t>),
                                    alignof(std::atomic<std::uint8_t>))) {
        cell = new (p) std::atomic<std::uint8_t>(0);
      } else {
        aux_overflow_ = true;
      }
    }
    if (cell == nullptr) {
      local_cells_.push_back(
          std::make_unique<std::atomic<std::uint8_t>>(0));
      cell = local_cells_.back().get();
    }
    flags_.push_back(FlagBinding{cell, &orig});
    return ShardFlag{cell};
  }

  /// Zero-round local relabeling: every node applies `fn` to its own state
  /// with no communication (e.g. KW palette compaction between stages).
  /// Runs on the worker pool; slots are disjoint, so results are
  /// schedule-independent like regular rounds.
  template <typename Fn>
  void mutate_states(Fn&& fn) {
    each_chunk(cur_.size(), [&](int, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i)
        cur_[i] = fn(std::move(cur_[i]));
    });
  }

 private:
  /// Static gates for the sharded path: a concrete host graph (lazy views
  /// have no cheap partition/cut scan and per-component work stays local
  /// anyway), raw-byte-copyable state that fits the halo plane's
  /// fixed-capacity regions, and equality (changed-boundary detection).
  static constexpr bool kShardable = std::same_as<GraphT, Graph> &&
                                     std::is_trivially_copyable_v<State> &&
                                     std::equality_comparable<State> &&
                                     sizeof(State) <= kMaxShardStateBytes;

  /// The backend's plan for this runner's graph, or nullptr to stay
  /// in-process. Only compiled into shardable instantiations.
  const ShardPlan* shard_plan() {
    if (options_.backend == nullptr) return nullptr;
    return options_.backend->plan_for(g_);
  }

  /// Fallback accounting for instantiations whose State/graph type cannot
  /// shard (the backend, if any, still learns a stage passed it by).
  void note_unshardable() {
    if (options_.backend != nullptr) options_.backend->note_fallback();
  }

  /// The plan's worker pool if ship()/ship_flag() should target its shared
  /// arena, acquiring the stage slot on first use (held until the runner
  /// dies — see the destructor). Accounting-neutral: uses find_plan, not
  /// plan_for, so ships don't inflate the per-stage fallback counters.
  ShardWorkerPool* ship_pool() {
    if constexpr (kShardable) {
      if (options_.backend == nullptr || aux_overflow_) return nullptr;
      const ShardPlan* plan = options_.backend->find_plan(g_);
      if (plan == nullptr || plan->pool == nullptr) return nullptr;
      hold_slot(plan->pool.get());
      return plan->pool.get();
    } else {
      return nullptr;
    }
  }

  void hold_slot(ShardWorkerPool* pool) {
    if (slot_pool_ == pool) return;
    DC_CHECK(slot_pool_ == nullptr);
    pool->slot_acquire();
    slot_pool_ = pool;
  }

  /// ORs every shipped flag cell back into its original atomic<bool>. Runs
  /// after every execution path, so callers observe identical flag state
  /// whether the stage ran in a pool worker or in-process.
  void sync_flags() {
    for (const FlagBinding& b : flags_) {
      if (b.cell->load(std::memory_order_relaxed) != 0)
        b.orig->store(true, std::memory_order_relaxed);
    }
  }

  /// Persistent-pool sharded execution (see shard_runner.hpp for the
  /// protocol and why results are bit-identical to run_full). The stage is
  /// dispatched to the plan's live workers: the state image crosses via
  /// the shared plane, and the step/done functors cross as raw bytes
  /// reconstructed by the shard_stage_entry trampoline — which is why only
  /// shard_safe()-marked, trivially-copyable closures reach this path.
  /// Frontier mode is ignored here — sharded stages are full sweeps —
  /// which is sound because frontier runs are bit-identical to full sweeps
  /// by contract.
  template <typename StepFn, typename DoneNodeFn>
  int run_sharded(const ShardPlan& plan, int max_rounds, const StepFn& step,
                  const DoneNodeFn& done_node) {
    DC_CHECK(plan.graph == &g_);
    using StepD = std::decay_t<StepFn>;
    using DoneD = std::decay_t<DoneNodeFn>;
    static_assert(std::is_trivially_copyable_v<StepD>,
                  "shard_safe step functors must be trivially copyable");
    static_assert(std::is_trivially_copyable_v<DoneD>,
                  "shard_safe done predicates must be trivially copyable");
    hold_slot(plan.pool.get());
    StageWire wire;
    wire.entry = &shard_stage_entry<State, StepD, DoneD>;
    wire.state_size = sizeof(State);
    wire.step_bytes.resize(sizeof(StepD));
    std::memcpy(wire.step_bytes.data(), std::addressof(step),
                sizeof(StepD));
    wire.done_bytes.resize(sizeof(DoneD));
    std::memcpy(wire.done_bytes.data(), std::addressof(done_node),
                sizeof(DoneD));
    ShardWorkerPool::StageResult res;
    try {
      res = plan.pool->run_stage(wire, max_rounds, cur_.data(),
                                 cur_.size() * sizeof(State));
    } catch (const CellError& e) {
      // Graceful degradation: once the pool's respawn budget is exhausted
      // (kWorkerDeath / kWorkerStall — anything else, e.g. a worker's own
      // exception, would deterministically recur in-process too), finish
      // the stage here instead of quarantining the cell. Safe because
      // run_stage never wrote `cur_` on failure, and shipped spans/flags
      // point into the still-mapped plane.
      if ((e.category() != FaultCategory::kWorkerDeath &&
           e.category() != FaultCategory::kWorkerStall) ||
          !options_.backend->degrade_on_worker_failure())
        throw;
      options_.backend->note_degraded();
      auto done = [&](const std::vector<State>& states) {
        for (std::size_t v = 0; v < states.size(); ++v)
          if (!done_node(static_cast<NodeId>(v), states[v])) return false;
        return true;
      };
      const int rounds = run_full(max_rounds, step, done);
      sync_flags();
      return rounds;
    }
    options_.backend->note_stage(plan, res.stats);
    sync_flags();
    return res.rounds;
  }

  template <typename StepFn, typename DoneFn>
  int run_full(int max_rounds, StepFn& step, DoneFn& done) {
    const NodeId n = g_.num_nodes();
    nxt_.resize(cur_.size());  // the shadow buffer; keyed runners need none
    int rounds = 0;
    while (rounds < max_rounds && !done(cur_)) {
      if (FaultInjector::armed())
        FaultInjector::global().on_engine_round(rounds);
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

  template <typename StepFn, typename DoneFn>
  int run_frontier(int max_rounds, StepFn& step, DoneFn& done) {
    const NodeId n = g_.num_nodes();
    nxt_.resize(cur_.size());
    changed_.assign(n, 0);
    queued_.assign(n, 0);
    // Cost model: a sparse round pays ~deg+1 per active node to step plus
    // ~deg+1 per changed node to rebuild the frontier; a dense round pays
    // ~deg+1 per node with no list bookkeeping. Sparse activation only
    // wins once the changed set is well below n / (avg_deg + 2), so the
    // engine runs dense sweeps while the frontier is wide and switches to
    // the sparse list once it shrinks (re-widening switches back). Both
    // round kinds are bit-identical in outcome; only the schedule differs.
    std::size_t avg_deg_plus_2 = 2;
    if constexpr (requires(const GraphT& g) { g.num_edges(); }) {
      if (n != 0) avg_deg_plus_2 = 2 * g_.num_edges() / n + 2;
    } else {
      // Lazy views expose no global edge count; the max degree is a
      // conservative stand-in (cutoff only tunes when sparse mode kicks
      // in, never results).
      avg_deg_plus_2 = static_cast<std::size_t>(g_.max_degree()) + 2;
    }
    const std::size_t sparse_cutoff =
        std::max<std::size_t>(1, n / (2 * avg_deg_plus_2));
    std::vector<NodeId> active, next_active;
    bool dense = true;  // the first sweep steps everyone
    // Dense-round bookkeeping is single-pass: each worker appends the
    // changed nodes of its own contiguous chunk to a private list while it
    // steps them, so no post-round O(n) count or rebuild scan runs. After
    // the barrier the list sizes are reduced for the cutoff test, and on a
    // dense -> sparse transition the lists are concatenated in chunk order
    // — chunks are ascending contiguous node ranges, so the concatenation
    // is exactly the ascending scan order the rebuild pass produced, and
    // the active list (hence every later round) is bit-identical.
    chunk_changed_.resize(
        pool_ == nullptr ? 1 : static_cast<std::size_t>(pool_->num_workers()));

    // Invariant at the top of each SPARSE round: for every node NOT on the
    // active list, nxt_[v] == cur_[v] (its state cannot change, and the
    // shadow slot already agrees). A dense round establishes it — every
    // shadow slot is written, and unchanged nodes get equal values — and
    // sparse rounds preserve it because a node whose step output differs
    // from its previous state is in its own closed neighborhood and
    // therefore re-activated.
    int rounds = 0;
    while (rounds < max_rounds && !done(cur_)) {
      if (FaultInjector::armed())
        FaultInjector::global().on_engine_round(rounds);
      const int r = rounds;
      if (dense) {
        for (auto& list : chunk_changed_) list.clear();
        each_chunk(n, [&](int worker, std::size_t begin, std::size_t end) {
          auto& changed_here = chunk_changed_[static_cast<std::size_t>(worker)];
          for (std::size_t i = begin; i < end; ++i) {
            const NodeId v = static_cast<NodeId>(i);
            State s = step(View(g_, v, cur_, r));
            if (!(s == cur_[v])) changed_here.push_back(v);
            nxt_[v] = std::move(s);
          }
        });
        cur_.swap(nxt_);
        std::size_t changed_count = 0;
        for (const auto& list : chunk_changed_) changed_count += list.size();
        if (changed_count <= sparse_cutoff) {
          next_active.clear();
          for (const auto& list : chunk_changed_)
            next_active.insert(next_active.end(), list.begin(), list.end());
          expand_frontier(next_active, active);
          dense = false;
        }
      } else if (!active.empty()) {
        each_chunk(active.size(),
                   [&](int, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       const NodeId v = active[i];
                       State s = step(View(g_, v, cur_, r));
                       changed_[v] = !(s == cur_[v]);
                       nxt_[v] = std::move(s);
                     }
                   });
        cur_.swap(nxt_);
        next_active.clear();
        for (const NodeId v : active)
          if (changed_[v]) next_active.push_back(v);
        if (next_active.size() > sparse_cutoff) {
          dense = true;  // frontier re-widened; sweep everyone again
        } else {
          expand_frontier(next_active, active);
        }
      }
      ++rounds;
    }
    return rounds;
  }

  /// CSR reverse scan: in an undirected graph the nodes whose view of the
  /// last round included a changed node are exactly the changed nodes'
  /// closed neighborhoods. `queued_` dedups; `out` is rebuilt in place.
  void expand_frontier(const std::vector<NodeId>& changed,
                       std::vector<NodeId>& out) {
    out.clear();
    for (const NodeId v : changed) {
      if (!queued_[v]) {
        queued_[v] = 1;
        out.push_back(v);
      }
      g_.for_each_neighbor(v, [&](NodeId u) {
        if (!queued_[u]) {
          queued_[u] = 1;
          out.push_back(u);
        }
      });
    }
    for (const NodeId v : out) queued_[v] = 0;
  }

  /// Runs fn(worker, begin, end) over contiguous chunks of [0, size), one
  /// per worker (worker 0 owns the whole range when serial, i.e. when
  /// options_.num_threads == 1). The worker index is for worker-private
  /// bookkeeping only (e.g. dense-round changed lists); results must not
  /// depend on it. Each worker's ScratchArena is reset before its chunk:
  /// round-local scratch carved by step kernels never survives into the
  /// next round (arena.hpp contract), and the reset is free once arenas
  /// are warm.
  template <typename ChunkFn>
  void each_chunk(std::size_t size, ChunkFn&& fn) {
    if (pool_ == nullptr || pool_->num_workers() == 1) {
      ScratchArena::local().reset();
      fn(0, std::size_t{0}, size);
      return;
    }
    // Full sweeps over the host graph run on *stable* degree-balanced
    // chunk bounds: every round hands worker w the same node range, so the
    // CSR/state pages a worker faulted in (first touch) stay its own, and
    // skewed-degree graphs don't leave the high-degree stripe's worker as
    // the round's straggler. Bounds depend only on the degree sequence and
    // worker count — chunks stay contiguous ascending ranges, so results
    // (and the dense-round changed-list concatenation order) are
    // bit-identical to uniform striping.
    if (size == g_.num_nodes() && size > 0) {
      if constexpr (requires(const GraphT& g, NodeId v) {
                      g.neighbors(v);
                      g.num_edges();
                    }) {
        if (chunk_bounds_.empty()) compute_chunk_bounds();
        pool_->for_chunks(
            chunk_bounds_,
            [&](int worker, std::size_t begin, std::size_t end) {
              ScratchArena::local().reset();
              fn(worker, begin, end);
            });
        return;
      }
    }
    pool_->for_range(0, size,
                     [&](int worker, std::size_t begin, std::size_t end) {
                       ScratchArena::local().reset();
                       fn(worker, begin, end);
                     });
  }

  /// Degree-balanced 64-node-aligned chunk bounds over [0, n): worker w
  /// gets nodes [bounds[w], bounds[w+1]) whose (deg+1)-weight sums to
  /// ~1/workers of the total. Boundaries round up to 64-node groups so a
  /// cache line of the (typically word-sized) state arrays never straddles
  /// two workers. The weighting is the shared partitioner's
  /// (graph/partition.hpp) — the same split logic shard manifests use,
  /// with alignment 1 there. Host graphs only (lazy views may have
  /// expensive degree()); computed once per runner, O(n).
  void compute_chunk_bounds() {
    chunk_bounds_ =
        degree_balanced_bounds(g_, pool_->num_workers(), /*align=*/64);
  }

  const GraphT& g_;
  EngineOptions options_;
  ThreadPool* pool_ = nullptr;
  std::vector<State> cur_;
  std::vector<State> nxt_;
  // Keyed rounds: bucket bounds (size buckets + 2; the last bucket holds
  // the never-keyed nodes and is not materialized), fill cursors, the
  // bucketed nodes, and the side buffer a bucket is stepped into.
  std::vector<std::size_t> keyed_start_;
  std::vector<std::size_t> keyed_fill_;
  std::vector<NodeId> keyed_nodes_;
  std::vector<State> keyed_next_;
  std::vector<std::uint8_t> changed_;  // frontier: state changed last round
  std::vector<std::uint8_t> queued_;   // frontier: dedup for the next list
  // Dense rounds: per-worker changed-node lists (ascending within each
  // worker's contiguous chunk), concatenated in chunk order on a
  // dense -> sparse transition.
  std::vector<std::vector<NodeId>> chunk_changed_;
  // Full sweeps: stable degree-balanced worker chunk bounds (see
  // compute_chunk_bounds); empty until the first full sweep needs them.
  std::vector<std::size_t> chunk_bounds_;
  // Sharded dispatch: the pool whose stage slot this runner holds (see
  // ship_pool / ~SyncRunner), and whether a ship() overflowed the plane's
  // arena (subsequent stages then run in-process, where the original data
  // the returned spans alias is live).
  ShardWorkerPool* slot_pool_ = nullptr;
  bool aux_overflow_ = false;
  // Shipped failure flags: plane (or local fallback) cell -> original.
  struct FlagBinding {
    std::atomic<std::uint8_t>* cell;
    std::atomic<bool>* orig;
  };
  std::vector<FlagBinding> flags_;
  std::vector<std::unique_ptr<std::atomic<std::uint8_t>>> local_cells_;
};

/// Worker-side stage trampoline: reconstructs the shipped step/done
/// functors from their byte images and runs the round loop of
/// SyncRunner::run_full restricted to the worker's owned range [lo, hi),
/// with ghost slots refreshed from the peers' halo slabs at each barrier
/// and re-pinned into the shadow buffer before the swap (a ghost's shadow
/// slot would otherwise be two rounds stale). Dispatched by address via
/// STAGE_BEGIN (shard_runner.hpp); returns to the worker control loop
/// after the final barrier, leaving the worker parked for the next stage.
///
/// Two round loops, selected by the STAGE_BEGIN mode byte (ctx.frames):
///
///  - shm (default): rounds synchronize on the plane's epoch barrier with
///    no frames at all, and the sweep is *boundary-first* — boundary nodes
///    step first with their changed-state records appended inline (the
///    sparse frontier: a quiescent round publishes an empty delta without
///    any post-step rescan of the boundary list), the slab publishes
///    before the interior sweep begins, and peers blocked at the barrier
///    eagerly merge each slab the moment its epoch appears — overlapping
///    this shard's interior compute with the peers' "communication".
///    Reordering boundary before interior cannot change results: every
///    step reads only `cur` (frozen for the round) and writes its own
///    `nxt` slot.
///
///  - frames: the PR 8 coordinator-mediated loop, byte-for-byte (full
///    sweep, then a post-swap boundary rescan publishes the delta, then
///    BARRIER/STEP frames) — the DELTACOLOR_BARRIER=frames escape hatch
///    and the bench_shard A/B baseline.
///
/// Both loops ship a WorkerStageEnd summary (rounds, record totals,
/// per-round barrier-wait and publish-time samples) home in STAGE_END.
template <typename State, typename StepFn, typename DoneFn>
void shard_stage_entry(const WorkerStageCtx& ctx) {
  static_assert(std::is_trivially_copyable_v<State>);
  static_assert(std::is_trivially_copyable_v<StepFn>);
  static_assert(std::is_trivially_copyable_v<DoneFn>);
  if (ctx.state_size != sizeof(State) || ctx.step_size != sizeof(StepFn) ||
      ctx.done_size != sizeof(DoneFn))
    throw TransportError(
        "STAGE_BEGIN closure bytes do not match the stage's types");
  // bit_cast via a byte array: the wire bytes are the functors' object
  // representations, captured in the dispatching process whose address
  // space fork duplicated — values, &host-graph, and plane pointers all
  // stay valid here; that is exactly the shard_safe contract.
  std::array<std::byte, sizeof(StepFn)> step_img;
  std::memcpy(step_img.data(), ctx.step_bytes, sizeof(StepFn));
  const StepFn step = std::bit_cast<StepFn>(step_img);
  std::array<std::byte, sizeof(DoneFn)> done_img;
  std::memcpy(done_img.data(), ctx.done_bytes, sizeof(DoneFn));
  const DoneFn done_node = std::bit_cast<DoneFn>(done_img);

  const Graph& g = *ctx.plan->graph;
  const ShardManifest& mf = ctx.plan->manifest;
  HaloPlane& plane = *ctx.plane;
  const int shard = ctx.shard;
  const std::size_t si = static_cast<std::size_t>(shard);
  const std::size_t lo = mf.bounds[si];
  const std::size_t hi = mf.bounds[si + 1];
  const auto& boundary = mf.boundary[si];
  const auto& ghosts = mf.ghosts[si];
  const auto& runs = mf.ghost_runs[si];
  const auto& interior = mf.interior_runs[si];
  constexpr std::size_t kRecord = 4 + sizeof(State);
  const std::size_t n = g.num_nodes();

  std::vector<State> cur(n);
  std::vector<State> nxt(n);
  // Initial state comes from the stage-entry *snapshot*, never from the
  // mutable state image (which finish() below overwrites): a replay after
  // a peer's death or stall re-reads the identical entry bytes, which is
  // what makes recovered stages bit-identical with zero restore copies.
  std::memcpy(cur.data(), plane.snapshot_bytes(ctx.snap_parity),
              n * sizeof(State));

  using ViewT = typename SyncRunner<State, Graph>::View;
  const auto own_done = [&]() -> std::uint8_t {
    for (std::size_t i = lo; i < hi; ++i)
      if (!done_node(static_cast<NodeId>(i), cur[i])) return 0;
    return 1;
  };
  using Clock = std::chrono::steady_clock;
  const auto ns_since = [](Clock::time_point t0) -> std::uint32_t {
    const long long d =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count();
    return static_cast<std::uint32_t>(
        std::clamp<long long>(d, 0, 0xffffffffll));
  };

  WorkerStageEnd ws;
  // Apply one peer's round-r slab: a two-pointer merge of the slab's
  // ascending records against this shard's ascending ghost run for that
  // peer. Only matching ghost slots are written, so even a corrupt slab
  // cannot write outside the ghost set.
  const auto merge_run = [&](const GhostRun& run,
                             const HaloPlane::SlabView& sv) -> std::uint32_t {
    const std::uint8_t* rec = sv.records;
    std::uint32_t gi = run.begin;
    std::uint32_t applied = 0;
    for (std::uint32_t i = 0; i < sv.count && gi < run.end;
         ++i, rec += kRecord) {
      NodeId node = 0;
      std::memcpy(&node, rec, 4);
      while (gi < run.end && ghosts[gi] < node) ++gi;
      if (gi < run.end && ghosts[gi] == node) {
        std::memcpy(&cur[node], rec + 4, sizeof(State));
        ++applied;
      }
    }
    ws.applied += applied;
    return applied;
  };
  const auto finish = [&](int rounds) {
    std::memcpy(plane.state_bytes() + lo * sizeof(State), cur.data() + lo,
                (hi - lo) * sizeof(State));
    plane.publish_final(shard, ctx.stage_id);
    ws.rounds = static_cast<std::uint32_t>(rounds);
    ctx.ch->send(FrameType::kStageEnd, encode_stage_end(ws));
  };

  if (!ctx.frames) {
    // --- shm epoch barrier: zero frames per round, boundary-first sweep.
    std::vector<std::uint8_t> merged(runs.size(), 0);
    plane.publish(shard, 0, ctx.epoch(0), 0);  // round 0 reads empty slabs
    int r = 0;
    std::uint8_t done = own_done();
    for (;;) {
      std::fill(merged.begin(), merged.end(), 0);
      plane.barrier_arrive(
          shard, ctx.epoch(r) | (done != 0 ? kBarrierDoneBit : 0));
      const auto barrier_at = Clock::now();
      // While peers trickle in, merge any round-r slab that is already
      // published — by the time the barrier opens, most of the halo work
      // is usually done (this is the read half of the overlap; the write
      // half is the early publish below).
      const bool peers_done = epoch_barrier_wait(ctx, r, [&] {
        for (std::size_t k = 0; k < runs.size(); ++k) {
          if (merged[k] != 0) continue;
          HaloPlane::SlabView sv;
          if (plane.try_open(runs[k].peer, r & 1, ctx.epoch(r), kRecord,
                             &sv)) {
            merge_run(runs[k], sv);
            merged[k] = 1;
          }
        }
      });
      ws.barrier_wait_ns.push_back(ns_since(barrier_at));
      // The halt predicate every worker computes identically from the
      // shared cells — exactly the coordinator's old all-done-or-max rule.
      if ((done != 0 && peers_done) || r >= ctx.max_rounds) {
        finish(r);
        return;
      }
      for (std::size_t k = 0; k < runs.size(); ++k) {
        if (merged[k] != 0) continue;
        merge_run(runs[k],
                  plane.open(runs[k].peer, r & 1, ctx.epoch(r), kRecord));
      }
      if (FaultInjector::armed()) {
        FaultInjector::global().on_engine_round(r);
        FaultInjector::global().on_shard_round(shard, r);
      }
      ScratchArena::local().reset();
      // Boundary first, appending changed-state records inline (ascending,
      // because boundary[] is ascending — the reader's merge relies on
      // that). The slab lands before any interior node steps, so peers
      // waiting at barrier r+1 start merging while this shard is still
      // sweeping its interior. Overwriting this parity's buddy (epoch
      // r-1) is safe: every peer merged it before arriving at barrier r,
      // and this code runs after barrier r opened.
      const auto publish_at = Clock::now();
      std::uint8_t* rec = plane.slab_records(shard, (r + 1) & 1);
      std::uint32_t count = 0;
      for (const NodeId b : boundary) {
        const State s = step(ViewT(g, b, cur, r));
        if (!(s == cur[b])) {
          std::memcpy(rec, &b, 4);
          std::memcpy(rec + 4, &s, sizeof(State));
          rec += kRecord;
          ++count;
        }
        nxt[b] = s;
      }
      // Torn-slab injection: a matching epoch with an impossible count is
      // exactly what a misordered publish would leave behind; readers
      // surface it as a structured TransportError, never a short read.
      if (FaultInjector::armed() &&
          FaultInjector::global().on_slab_publish(shard, r))
        plane.publish(shard, (r + 1) & 1, ctx.epoch(r + 1),
                      ~std::uint32_t{0});
      else
        plane.publish(shard, (r + 1) & 1, ctx.epoch(r + 1), count);
      ws.publish_ns.push_back(ns_since(publish_at));
      ws.published += count;
      for (const NodeRun& run : interior)
        for (NodeId i = run.begin; i < run.end; ++i)
          nxt[i] = step(ViewT(g, i, cur, r));
      for (const NodeId gnode : ghosts) nxt[gnode] = cur[gnode];
      cur.swap(nxt);
      ++r;
      done = own_done();
    }
  }

  // --- frames escape hatch: the PR 8 coordinator-mediated loop.
  const auto send_barrier = [&](std::uint32_t published,
                                std::uint32_t applied) {
    std::uint8_t payload[9];
    payload[0] = own_done();
    std::memcpy(payload + 1, &published, 4);
    std::memcpy(payload + 5, &applied, 4);
    ctx.ch->send(FrameType::kBarrier, payload, sizeof(payload));
  };
  // Changed boundary records, published ascending into this shard's slab
  // for `round`'s parity (the buddy buffer now holds round - 2, which
  // every reader is done with — see halo_plane.hpp). One bulk region
  // write + one release store replaces the per-record frame copies of the
  // fork-per-stage design.
  const auto publish_round = [&](int round) -> std::uint32_t {
    const auto publish_at = Clock::now();
    std::uint8_t* rec = plane.slab_records(shard, round & 1);
    std::uint32_t count = 0;
    for (const NodeId b : boundary) {
      if (cur[b] == nxt[b]) continue;  // nxt holds the pre-swap states
      std::memcpy(rec, &b, 4);
      std::memcpy(rec + 4, &cur[b], sizeof(State));
      rec += kRecord;
      ++count;
    }
    if (FaultInjector::armed() &&
        FaultInjector::global().on_slab_publish(shard, round))
      plane.publish(shard, round & 1, ctx.epoch(round), ~std::uint32_t{0});
    else
      plane.publish(shard, round & 1, ctx.epoch(round), count);
    ws.publish_ns.push_back(ns_since(publish_at));
    ws.published += count;
    return count;
  };

  plane.publish(shard, 0, ctx.epoch(0), 0);  // round 0 reads empty slabs
  auto barrier_at = Clock::now();
  send_barrier(0, 0);
  int r = 0;
  Frame f;
  for (;;) {
    if (!ctx.ch->recv(&f)) std::_Exit(1);  // coordinator vanished
    ws.barrier_wait_ns.push_back(ns_since(barrier_at));
    if (f.type == FrameType::kHalt) {
      finish(r);
      return;
    }
    // A peer died or stalled: abandon the attempt (the worker loop acks
    // and parks; the coordinator replays with a fresh stage id).
    if (f.type == FrameType::kStageAbort) throw StageAbortSignal{};
    if (f.type != FrameType::kStep)
      throw TransportError("unexpected frame inside a stage round loop");
    std::uint32_t applied = 0;
    for (const GhostRun& run : runs)
      applied +=
          merge_run(run, plane.open(run.peer, r & 1, ctx.epoch(r), kRecord));
    if (FaultInjector::armed()) {
      FaultInjector::global().on_engine_round(r);
      FaultInjector::global().on_shard_round(shard, r);
    }
    ScratchArena::local().reset();
    for (std::size_t i = lo; i < hi; ++i)
      nxt[i] = step(ViewT(g, static_cast<NodeId>(i), cur, r));
    for (const NodeId gnode : ghosts) nxt[gnode] = cur[gnode];
    cur.swap(nxt);
    ++r;
    const std::uint32_t published = publish_round(r);
    barrier_at = Clock::now();
    send_barrier(published, applied);
  }
}

/// One round of "everyone publishes, everyone reads neighbors" implemented
/// directly for hand-rolled primitives that keep their own buffers: swaps
/// `next` into `cur` and returns the incremented round count. An O(1) swap
/// (not a copy) is all the double-buffer discipline requires: once every
/// node has written its round-t state into `next`, the buffers trade roles
/// — `cur` becomes the published round-t snapshot, and the old snapshot
/// becomes the scratch buffer that round t+1 overwrites slot-by-slot before
/// the next commit, so its stale contents are never observed. Purely a
/// readability helper to keep that discipline visible at call sites.
template <typename State>
int commit_round(std::vector<State>& cur, std::vector<State>& next,
                 int rounds) {
  cur.swap(next);
  return rounds + 1;
}

}  // namespace deltacolor
