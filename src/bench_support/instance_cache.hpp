// Keyed instance cache for the experiment suite.
//
// Multi-algorithm benches (E7's head-to-head, E11's subroutine columns,
// E12's ablations) evaluate several algorithms — or several option sets —
// on the *same* generated instance, and sweep drivers re-run the same
// (family, options, seed) point across cells. Generating a clique blow-up
// is not cheap (the 6-cycle ownership repair rebuilds the cross graph per
// scan), so the cache generates each keyed instance exactly once and hands
// out shared read-only pointers.
//
// Keying and ownership rules (see DESIGN.md §instance-cache):
//  * The key is the full generator input: family name + every generator
//    option + seed. Two requests with equal keys see the same object.
//  * Cached instances are immutable (`shared_ptr<const T>`). Callers that
//    need to mutate (e.g. install fresh LOCAL ids) must copy; the
//    generators already install shuffled ids keyed by seed, so benches
//    never need to.
//  * Generation is single-flight: under concurrent SweepDriver cells the
//    first requester builds while the rest block on the slot's condition
//    variable, so a key is never generated twice and never observed
//    half-built. Single-flight is *exception-safe*: a generator that
//    throws wakes every waiter, the slot returns to empty, and the next
//    requester rebuilds — the exception propagates only to the requester
//    whose call ran the generator. (The previous std::once_flag latch
//    could not do this: on libstdc++ an exception inside call_once leaves
//    concurrent waiters blocked in pthread_once forever.)
//  * Wall-clock spent generating is charged to the "graph-build" phase of
//    the ledger passed by the *building* requester (cache hits charge
//    nothing), keeping instance cost separated from per-cell algorithm
//    cost in sweep ledgers.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "graph/generators.hpp"
#include "local/ledger.hpp"
#include "primitives/hypergraph.hpp"

namespace deltacolor::bench {

class InstanceCache {
 public:
  /// Process-wide cache shared by every bench; the sweep driver reports
  /// its hit and miss counts.
  static InstanceCache& global();

  /// Clique blow-up keyed by every CliqueInstanceOptions field.
  std::shared_ptr<const CliqueInstance> blowup(
      const CliqueInstanceOptions& options, RoundLedger* ledger = nullptr);

  /// Ring of easy cliques (clique_ring).
  std::shared_ptr<const CliqueInstance> ring(int num_cliques, int clique_size,
                                             std::uint64_t seed,
                                             RoundLedger* ledger = nullptr);

  /// Random d-regular graph (random_regular).
  std::shared_ptr<const Graph> regular(NodeId n, int d, std::uint64_t seed,
                                       RoundLedger* ledger = nullptr);

  /// Lemma-5 random multihypergraph (bench::random_hypergraph).
  std::shared_ptr<const Hypergraph> hypergraph(int num_vertices, int delta,
                                               int rank, std::uint64_t seed,
                                               RoundLedger* ledger = nullptr);

  /// Arbitrary keyed graph with a caller-supplied generator, under the
  /// same single-flight slot discipline as the named families (the key is
  /// namespaced "custom/<key>"). The exception-safety regression tests
  /// drive the slot discipline through it (`build` may throw; see the
  /// single-flight rules above).
  std::shared_ptr<const Graph> custom_graph(
      const std::string& key, const std::function<Graph()>& build,
      RoundLedger* ledger = nullptr);

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    double build_ms = 0;  ///< total wall-clock spent generating (misses)
  };
  Stats stats() const;

  /// Drops every cached instance (outstanding shared_ptrs stay valid).
  void clear();

 private:
  /// Single-flight build slot: a small state machine instead of a
  /// std::once_flag, because the latch must survive a throwing generator
  /// (kBuilding -> kEmpty + notify_all; the next requester rebuilds).
  template <typename T>
  struct Slot {
    enum class State { kEmpty, kBuilding, kReady };
    std::mutex mu;
    std::condition_variable cv;
    State state = State::kEmpty;
    std::shared_ptr<const T> value;  // set exactly once, before kReady
  };

  template <typename T, typename BuildFn>
  std::shared_ptr<const T> get_or_build(
      std::unordered_map<std::string, std::shared_ptr<Slot<T>>>& map,
      const std::string& key, RoundLedger* ledger, BuildFn&& build);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Slot<CliqueInstance>>>
      cliques_;
  std::unordered_map<std::string, std::shared_ptr<Slot<Graph>>> graphs_;
  std::unordered_map<std::string, std::shared_ptr<Slot<Hypergraph>>>
      hypergraphs_;
  Stats stats_;
};

}  // namespace deltacolor::bench
