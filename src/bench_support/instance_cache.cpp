#include "bench_support/instance_cache.hpp"

#include <chrono>
#include <sstream>
#include <utility>

#include "bench_support/workloads.hpp"

namespace deltacolor::bench {

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

InstanceCache& InstanceCache::global() {
  static InstanceCache cache;
  return cache;
}

template <typename T, typename BuildFn>
std::shared_ptr<const T> InstanceCache::get_or_build(
    std::unordered_map<std::string, std::shared_ptr<Slot<T>>>& map,
    const std::string& key, RoundLedger* ledger, BuildFn&& build) {
  using State = typename Slot<T>::State;
  std::shared_ptr<Slot<T>> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& entry = map[key];
    if (!entry) entry = std::make_shared<Slot<T>>();
    slot = entry;
  }
  std::unique_lock<std::mutex> lock(slot->mu);
  // Wait out an in-flight build. Waking on kEmpty means the builder's
  // generator threw — loop around and claim the build ourselves.
  while (slot->state == State::kBuilding)
    slot->cv.wait(lock,
                  [&] { return slot->state != State::kBuilding; });
  if (slot->state == State::kReady) {
    std::shared_ptr<const T> value = slot->value;
    lock.unlock();
    std::lock_guard<std::mutex> stats_lock(mu_);
    ++stats_.hits;
    return value;
  }
  slot->state = State::kBuilding;
  lock.unlock();
  const double start = now_ms();
  std::shared_ptr<const T> value;
  try {
    value = std::make_shared<const T>(build());
  } catch (...) {
    // Exception-safe single-flight: the slot returns to empty and every
    // waiter wakes; the next requester rebuilds, only we see the throw.
    lock.lock();
    slot->state = State::kEmpty;
    lock.unlock();
    slot->cv.notify_all();
    throw;
  }
  const double elapsed = now_ms() - start;
  lock.lock();
  slot->value = value;
  slot->state = State::kReady;
  lock.unlock();
  slot->cv.notify_all();
  if (ledger != nullptr) ledger->charge_time("graph-build", elapsed);
  std::lock_guard<std::mutex> stats_lock(mu_);
  ++stats_.misses;
  stats_.build_ms += elapsed;
  return value;
}

std::shared_ptr<const CliqueInstance> InstanceCache::blowup(
    const CliqueInstanceOptions& options, RoundLedger* ledger) {
  std::ostringstream key;
  key << "blowup/t=" << options.num_cliques << "/d=" << options.delta
      << "/s=" << options.clique_size << "/easy=" << options.easy_fraction
      << "/seed=" << options.seed << "/shuffle=" << options.shuffle_ids;
  return get_or_build(cliques_, key.str(), ledger,
                      [&] { return clique_blowup_instance(options); });
}

std::shared_ptr<const CliqueInstance> InstanceCache::ring(
    int num_cliques, int clique_size, std::uint64_t seed,
    RoundLedger* ledger) {
  std::ostringstream key;
  key << "ring/t=" << num_cliques << "/s=" << clique_size << "/seed=" << seed;
  return get_or_build(cliques_, key.str(), ledger, [&] {
    return clique_ring(num_cliques, clique_size, seed);
  });
}

std::shared_ptr<const Graph> InstanceCache::regular(NodeId n, int d,
                                                    std::uint64_t seed,
                                                    RoundLedger* ledger) {
  std::ostringstream key;
  key << "regular/n=" << n << "/d=" << d << "/seed=" << seed;
  return get_or_build(graphs_, key.str(), ledger,
                      [&] { return random_regular(n, d, seed); });
}

std::shared_ptr<const Hypergraph> InstanceCache::hypergraph(
    int num_vertices, int delta, int rank, std::uint64_t seed,
    RoundLedger* ledger) {
  std::ostringstream key;
  key << "hypergraph/n=" << num_vertices << "/d=" << delta << "/r=" << rank
      << "/seed=" << seed;
  return get_or_build(hypergraphs_, key.str(), ledger, [&] {
    return random_hypergraph(num_vertices, delta, rank, seed);
  });
}

std::shared_ptr<const Graph> InstanceCache::custom_graph(
    const std::string& key, const std::function<Graph()>& build,
    RoundLedger* ledger) {
  return get_or_build(graphs_, "custom/" + key, ledger,
                      [&] { return build(); });
}

InstanceCache::Stats InstanceCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void InstanceCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cliques_.clear();
  graphs_.clear();
  hypergraphs_.clear();
  stats_ = Stats{};
}

}  // namespace deltacolor::bench
