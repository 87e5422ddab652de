#include "local/faults.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "common/parse.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace deltacolor {

namespace {

thread_local std::int64_t tls_cell = -1;
thread_local int tls_attempt = 0;

/// FNV-1a, so free choices keyed on phase labels are stable across runs
/// (std::hash is only stable within one process).
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Edit distance for the did-you-mean suggestions: small strings only, so
/// the O(len^2) two-row dynamic program is plenty.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// Closest candidate within edit distance 3, or "" when nothing is close
/// enough to be a plausible typo.
std::string_view closest_of(std::string_view name,
                            const std::vector<std::string_view>& candidates) {
  std::string_view best;
  std::size_t best_d = 4;
  for (const std::string_view c : candidates) {
    const std::size_t d = edit_distance(name, c);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

std::vector<std::string_view> category_names() {
  std::vector<std::string_view> names;
  for (const FaultCategory c :
       {FaultCategory::kInvariantViolation, FaultCategory::kRoundBudgetExceeded,
        FaultCategory::kWallClockTimeout, FaultCategory::kEngineException,
        FaultCategory::kProcessKill})
    names.push_back(to_string(c));
  return names;
}

const std::vector<std::string_view>& spec_keys() {
  static const std::vector<std::string_view> keys = {
      "cell", "round", "node", "attempts", "extra_rounds", "sleep_ms",
      "phase"};
  return keys;
}

void set_unknown_name_error(std::string_view what, std::string_view name,
                            const std::vector<std::string_view>& candidates,
                            std::string* error) {
  if (error == nullptr) return;
  std::string msg = "unknown fault " + std::string(what) + " '" +
                    std::string(name) + "'";
  const std::string_view hint = closest_of(name, candidates);
  if (!hint.empty()) msg += " — did you mean '" + std::string(hint) + "'?";
  *error = msg;
}

}  // namespace

bool parse_fault_spec(std::string_view text, FaultSpec* out,
                      std::string* error) {
  FaultSpec spec;
  const std::size_t at = text.find('@');
  const std::string_view name = text.substr(0, at);
  if (!parse_fault_category(name, &spec.category)) {
    set_unknown_name_error("category", name, category_names(), error);
    return false;
  }
  std::string_view rest =
      at == std::string_view::npos ? std::string_view{} : text.substr(at + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      if (error != nullptr)
        *error = "malformed fault pair '" + std::string(pair) +
                 "' (expected key=value)";
      return false;
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    if (key == "cell" && parse_whole(value, &spec.cell)) continue;
    if (key == "round" && parse_whole(value, &spec.round)) continue;
    if (key == "node" && parse_whole(value, &spec.node)) continue;
    if (key == "phase" && !value.empty()) {
      spec.phase = std::string(value);
      continue;
    }
    if (key == "attempts" && parse_whole(value, &spec.attempts)) continue;
    if (key == "extra_rounds" && parse_whole(value, &spec.extra_rounds))
      continue;
    if (key == "sleep_ms" && parse_whole(value, &spec.sleep_ms)) continue;
    // A recognized key with an unparsable value is a value error; an
    // unrecognized key gets the did-you-mean treatment.
    bool known = false;
    for (const std::string_view k : spec_keys()) known = known || k == key;
    if (known) {
      if (error != nullptr)
        *error = "bad value '" + std::string(value) + "' for fault key '" +
                 std::string(key) + "'";
    } else {
      set_unknown_name_error("key", key, spec_keys(), error);
    }
    return false;
  }
  // process-kill fires only at cell start, which probes with no round: a
  // round coordinate would parse and then never fire.
  if (spec.category == FaultCategory::kProcessKill && spec.round >= 0) {
    if (error != nullptr)
      *error = "process-kill takes no round= coordinate (it fires at cell "
               "start)";
    return false;
  }
  *out = spec;
  return true;
}

bool parse_fault_spec(std::string_view text, FaultSpec* out) {
  return parse_fault_spec(text, out, nullptr);
}

FaultInjector& FaultInjector::global() {
  static FaultInjector injector;
  return injector;
}

FaultInjector::FaultInjector() {
  const std::uint64_t seed =
      env_number<std::uint64_t>("DELTACOLOR_FAULT_SEED", 0, ~std::uint64_t{0})
          .value_or(1);
  const char* env = std::getenv("DELTACOLOR_FAULTS");
  if (env == nullptr || *env == '\0') return;
  std::vector<FaultSpec> plan;
  std::string_view text(env);
  while (!text.empty()) {
    const std::size_t semi = text.find(';');
    const std::string_view one = text.substr(0, semi);
    text = semi == std::string_view::npos ? std::string_view{}
                                          : text.substr(semi + 1);
    if (one.empty()) continue;
    FaultSpec spec;
    std::string error;
    if (!parse_fault_spec(one, &spec, &error)) {
      // A fault plan that silently half-parses leaves the chaos test
      // believing it injected and didn't; fail loudly (see env_number).
      std::cerr << "deltacolor: invalid DELTACOLOR_FAULTS spec '" << one
                << "': " << error << "\n";
      std::_Exit(2);
    }
    plan.push_back(std::move(spec));
  }
  if (!plan.empty()) arm(std::move(plan), seed);
}

std::atomic<bool>& FaultInjector::armed_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

void FaultInjector::arm(std::vector<FaultSpec> plan, std::uint64_t seed) {
  bool any = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    plan_.clear();
    for (FaultSpec& spec : plan) plan_.push_back(ArmedSpec{std::move(spec)});
    seed_ = seed;
    fired_ = 0;
    any = !plan_.empty();
  }
  armed_flag().store(any, std::memory_order_relaxed);
}

void FaultInjector::disarm() {
  armed_flag().store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  plan_.clear();
}

std::size_t FaultInjector::fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

FaultInjector::CellScope::CellScope(std::int64_t cell, int attempt)
    : prev_cell_(tls_cell), prev_attempt_(tls_attempt) {
  tls_cell = cell;
  tls_attempt = attempt;
}

FaultInjector::CellScope::~CellScope() {
  tls_cell = prev_cell_;
  tls_attempt = prev_attempt_;
}

std::int64_t FaultInjector::current_cell() { return tls_cell; }
int FaultInjector::current_attempt() { return tls_attempt; }

bool FaultInjector::claim(FaultCategory category, std::int64_t round,
                          std::string_view phase, FaultSpec* out) {
  std::lock_guard<std::mutex> lock(mu_);
  for (ArmedSpec& armed : plan_) {
    const FaultSpec& s = armed.spec;
    if (s.category != category) continue;
    if (s.cell >= 0 && s.cell != tls_cell) continue;
    if (s.round >= 0 && s.round != round) continue;
    if (!s.phase.empty() && s.phase != phase) continue;
    if (s.attempts > 0 && tls_attempt >= s.attempts) continue;
    if (armed.fired_cell == tls_cell && armed.fired_attempt == tls_attempt)
      continue;  // at most one firing per (cell, attempt)
    armed.fired_cell = tls_cell;
    armed.fired_attempt = tls_attempt;
    ++fired_;
    *out = s;
    return true;
  }
  return false;
}

void FaultInjector::on_cell_start() {
  FaultSpec spec;
  if (claim(FaultCategory::kProcessKill, -1, {}, &spec)) {
    // Simulated SIGKILL for the journal/--resume round-trip: no stack
    // unwinding, no flushing beyond what the journal already did per line.
    std::_Exit(137);
  }
  if (claim(FaultCategory::kWallClockTimeout, -1, {}, &spec))
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(spec.sleep_ms));
  if (claim(FaultCategory::kEngineException, -1, {}, &spec))
    throw std::runtime_error("injected engine exception (cell start)");
}

std::int64_t FaultInjector::on_phase_charge(std::string_view phase) {
  FaultSpec spec;
  if (claim(FaultCategory::kWallClockTimeout, -1, phase, &spec))
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(spec.sleep_ms));
  if (claim(FaultCategory::kEngineException, -1, phase, &spec))
    throw std::runtime_error("injected engine exception (phase " +
                             std::string(phase) + ")");
  if (claim(FaultCategory::kRoundBudgetExceeded, -1, phase, &spec))
    return spec.extra_rounds;
  return 0;
}

void FaultInjector::on_engine_round(int round) {
  FaultSpec spec;
  if (claim(FaultCategory::kWallClockTimeout, round, {}, &spec))
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(spec.sleep_ms));
  if (claim(FaultCategory::kEngineException, round, {}, &spec))
    throw std::runtime_error("injected engine exception (round " +
                             std::to_string(round) + ")");
}

void FaultInjector::maybe_corrupt_coloring(std::string_view phase,
                                           const Graph& g,
                                           std::vector<Color>& color) {
  FaultSpec spec;
  if (!claim(FaultCategory::kInvariantViolation, -1, phase, &spec)) return;
  const NodeId n = g.num_nodes();
  if (n == 0) return;
  std::uint64_t pick;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pick = hash_mix(seed_, static_cast<std::uint64_t>(tls_cell + 1),
                    fnv1a(phase));
  }
  NodeId v = spec.node >= 0 ? static_cast<NodeId>(spec.node % n)
                            : static_cast<NodeId>(pick % n);
  // Walk forward to a node with a neighbor so the corruption lands on an
  // actual edge (deterministic: first such node at or after the pick).
  for (NodeId step = 0; step < n; ++step) {
    const NodeId cand = (v + step) % n;
    if (g.degree(cand) > 0) {
      v = cand;
      break;
    }
  }
  if (g.degree(v) == 0) return;  // edgeless graph: nothing to violate
  const NodeId u = g.neighbors(v).front();
  Color c = color[u] != kNoColor ? color[u]
            : color[v] != kNoColor ? color[v]
                                   : Color{1};
  color[v] = c;
  color[u] = c;  // edge (v, u) is now monochromatic
}

}  // namespace deltacolor
