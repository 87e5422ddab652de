// dcbench — the repository benchmark: verified `dcolor color` solves on
// clique blow-ups, timed end to end and layer by layer.
//
//   dcbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//           [--cliques K] [--corrupt-solve I]
//
// One run, in one process, with the engine pinned to one worker:
//   1. Set-up, kSetups times: generate the workload's blow-up from
//      the seed (clique_blowup_instance) and write it as .dcsr
//      (write_csr_file), which is what `dcolor gen` costs. setup_s is the
//      median.
//   2. Untraced solves back to back for S seconds: a closed loop with one
//      client. A solve is load_csr_file plus the registry entry that
//      `dcolor --threads=1 --load=X color ALGO SEED` runs. The benchmark's
//      own check runs after each solve's timed window.
//   3. With --trace 1, one traced solve that records a span around every
//      call into a layer's public functions (spans.hpp). The spans are
//      written as Chrome trace-event JSON into the work dir.
//
// Correctness gate: a solve fails if it throws, if the registry entry or
// check_coloring rejects its coloring, or if its coloring hash (FNV-1a over
// the colors) or per-phase rounds differ from the run's majority, which the
// traced pass must match too. At the seeds in kReference the majority must
// also equal the recorded rounds and hash.
//
// The seed drives both the generator and the algorithm. Output: readable
// lines, a JSON report in the work dir, and as the last stdout line
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit codes: 0 once that line is printed; 1 if set-up broke;
// 2 on bad usage or while DELTACOLOR_FAULTS is set, since a fault-injected
// run measures a different program.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "deltacolor.hpp"
#include "spans.hpp"

namespace {

using namespace deltacolor;
using dcbench::LayerSpan;
using dcbench::SpanRecorder;
using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

struct Workload {
  std::string_view name;
  std::string_view algo;
  int easy_percent;
};

// n = 65536 cliques x 16 = 1,048,576 nodes, Delta = 16. Why each was
// chosen is in RATIONALE.md.
constexpr Workload kWorkloads[] = {
    {"det-hard-1m", "det", 0},
    {"rand-hard-1m", "rand", 0},
    {"trial-hard-1m", "trial", 0},
    {"det-mixed-1m", "det", 25},
};
constexpr int kFullCliques = 65536;
constexpr int kDelta = 16;
/// setup_s is the median of this many set-ups in a run.
constexpr int kSetups = 3;

/// Recorded rounds and coloring hash per (workload, size, seed). A change
/// that moves them changes the program's output, not its speed.
struct Reference {
  std::string_view workload;
  int cliques;
  std::uint64_t seed;
  std::int64_t rounds;
  std::uint64_t hash;
};
constexpr Reference kReference[] = {
    {"det-hard-1m", kFullCliques, 1, 724, 0xecd10f3c90163c15},
    {"det-hard-1m", kFullCliques, 2, 724, 0x5005887ca0dbdf65},
    {"det-hard-1m", kFullCliques, 3, 703, 0x8dab515a49c9e665},
    {"det-hard-1m", kFullCliques, 4, 724, 0xf8eb964e8c864ab5},
    {"det-hard-1m", kFullCliques, 5, 724, 0x2b100e9152d7d2c5},
    {"det-hard-1m", kFullCliques, 6, 745, 0x2f17112fcab644c5},
    {"det-hard-1m", kFullCliques, 7, 724, 0x33d964695e9e4385},
    {"det-hard-1m", kFullCliques, 8, 745, 0x25360ff194cf42f5},
    {"det-hard-1m", kFullCliques, 9, 724, 0x73e8abb4b5018735},
    {"det-hard-1m", kFullCliques, 10, 724, 0xf275c358c44b1745},
    {"rand-hard-1m", kFullCliques, 1, 504, 0xdd2aff3d455a7f15},
    {"rand-hard-1m", kFullCliques, 2, 505, 0xfe498812b616d405},
    {"rand-hard-1m", kFullCliques, 3, 512, 0x59a41ca9c0117995},
    {"rand-hard-1m", kFullCliques, 4, 505, 0x5c4f238dfb39ddd5},
    {"rand-hard-1m", kFullCliques, 5, 505, 0xbc91102dd9e90155},
    {"rand-hard-1m", kFullCliques, 6, 512, 0x0d77e5cb70997695},
    {"rand-hard-1m", kFullCliques, 7, 505, 0x93c88106816d5545},
    {"rand-hard-1m", kFullCliques, 8, 505, 0x50c15056610d3fa5},
    {"rand-hard-1m", kFullCliques, 9, 505, 0x84eb709dab014325},
    {"rand-hard-1m", kFullCliques, 10, 505, 0xdbc0904c0b346595},
    {"trial-hard-1m", kFullCliques, 1, 34, 0x9d4706c25cc7d4e2},
    {"trial-hard-1m", kFullCliques, 2, 32, 0xb996eb22efc5de13},
    {"trial-hard-1m", kFullCliques, 3, 32, 0x2055c986a25cf3ca},
    {"trial-hard-1m", kFullCliques, 4, 32, 0xfa171b96e5c84d69},
    {"trial-hard-1m", kFullCliques, 5, 36, 0x8a2a2e51875d7685},
    {"trial-hard-1m", kFullCliques, 6, 30, 0xbd6a5d4fd3d52d28},
    {"trial-hard-1m", kFullCliques, 7, 36, 0xc319facb5cdf4638},
    {"trial-hard-1m", kFullCliques, 8, 36, 0xc9ff0ed9198316e2},
    {"trial-hard-1m", kFullCliques, 9, 36, 0x14719d7f4a6131f0},
    {"trial-hard-1m", kFullCliques, 10, 28, 0x228483a3424d3425},
    {"det-mixed-1m", kFullCliques, 1, 1081, 0x1771034ab983e20b},
    {"det-mixed-1m", kFullCliques, 2, 1132, 0xa08059e0c1834609},
    {"det-mixed-1m", kFullCliques, 3, 961, 0x2585234e1878be72},
    {"det-mixed-1m", kFullCliques, 4, 1083, 0x3ee117147e1f57fc},
    {"det-mixed-1m", kFullCliques, 5, 982, 0xdf0cd7ebd669ed68},
    {"det-mixed-1m", kFullCliques, 6, 961, 0x226b92a07b7599c0},
    {"det-mixed-1m", kFullCliques, 7, 975, 0x6a91ce421f900e1c},
    {"det-mixed-1m", kFullCliques, 8, 976, 0xdca5af0cab87527e},
    {"det-mixed-1m", kFullCliques, 9, 981, 0x3e947a852a8d6a47},
    {"det-mixed-1m", kFullCliques, 10, 957, 0xcc807df3b5e98ad3},
    // The self-test size (selftest.py).
    {"det-hard-1m", 256, 1, 713, 0x7c72b89e206bbfc5},
    {"rand-hard-1m", 256, 1, 359, 0x308725d9f299d915},
    {"trial-hard-1m", 256, 1, 18, 0x587de84a3616a378},
    {"det-mixed-1m", 256, 1, 698, 0x36354d1c83102a5c},
};

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

// Must match BENCHMARK.json; selftest.py checks that they do.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"solve_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"rounds", "rounds"},
    {"ok_frac", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"graph.gen_s", "s"},
    {"graph.write_s", "s"},
    {"graph.load_s", "s"},
    {"graph.check_s", "s"},
    {"graph.file_mb", "MiB"},
    {"acd.s", "s"},
    {"acd.rounds", "rounds"},
    {"acd.cliques", "count"},
    {"core.loopholes.s", "s"},
    {"core.loopholes.rounds", "rounds"},
    {"core.loopholes.found", "count"},
    {"core.hardness.s", "s"},
    {"core.hardness.hard_cliques", "count"},
    {"core.hard.s", "s"},
    {"core.hard.rounds", "rounds"},
    {"core.hard.triads", "count"},
    {"core.hard.retries", "count"},
    {"core.hard.phase1-matching.rounds", "rounds"},
    {"core.hard.phase1-heg.rounds", "rounds"},
    {"core.hard.phase2-split.rounds", "rounds"},
    {"core.hard.phase3-triads.rounds", "rounds"},
    {"core.hard.phase4a-pairs.rounds", "rounds"},
    {"core.hard.phase4b-rest.rounds", "rounds"},
    {"core.easy.s", "s"},
    {"core.easy.rounds", "rounds"},
    {"core.easy.layers", "count"},
    {"core.easy.ruling_loopholes", "count"},
    {"randomized.preshattering.s", "s"},
    {"randomized.layering.s", "s"},
    {"randomized.postshattering.s", "s"},
    {"randomized.postprocessing.s", "s"},
    {"randomized.easy.s", "s"},
    {"randomized.self.s", "s"},
    {"randomized.tnodes", "count"},
    {"randomized.placement_yield", "ratio"},
    {"randomized.components", "count"},
    {"randomized.max_component_nodes", "count"},
    {"local.trial.s", "s"},
    {"local.trial.rounds", "rounds"},
    {"trace.overhead_s", "s"},
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() / 2;
  return v.size() % 2 == 1 ? v[k] : 0.5 * (v[k - 1] + v[k]);
}

std::string hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------- solves

/// What must repeat exactly across the solves of one run.
struct Signature {
  std::uint64_t hash = 0;
  std::int64_t rounds = 0;
  std::vector<std::pair<std::string, std::int64_t>> phases;
  bool operator==(const Signature&) const = default;
};

struct Solve {
  double seconds = 0.0;  ///< 0 when the solve threw
  bool traced = false;
  std::string error;     ///< why it failed; empty when it passed
  Signature sig;
};

/// A coloring with the ledger and verdict of the call that produced it.
struct Colored {
  std::vector<Color> color;
  RoundLedger ledger;
  int palette = 0;
  bool ok = false;
};

/// The benchmark's own check, run outside the timed window.
void check_solve(const Graph& g, const Colored& out, Solve& s) {
  s.sig.hash = csr_checksum(out.color.data(), out.color.size() * sizeof(Color));
  s.sig.rounds = out.ledger.total();
  s.sig.phases = out.ledger.phases();
  if (out.color.size() != g.num_nodes()) {
    s.error = "coloring has the wrong size";
    return;
  }
  const ColoringReport report = check_coloring(g, out.color);
  if (!report.proper || !report.complete || report.max_color >= out.palette)
    s.error = "check_coloring rejected: " + report.describe();
  else if (!out.ok)
    s.error = "the library rejected its own coloring";
}

/// Gives node 0 the color of a neighbor, for the self-test of the gate.
void corrupt_coloring(const Graph& g, std::vector<Color>& color) {
  const auto nbrs = g.neighbors(0);
  if (!nbrs.empty()) color[0] = color[nbrs[0]];
}

Solve untraced_solve(const std::string& path, const AlgorithmEntry& entry,
                     std::uint64_t seed, bool corrupt) {
  Solve s;
  try {
    AlgorithmRequest req;
    req.seed = seed;
    req.engine.num_threads = 1;
    const Clock::time_point t0 = Clock::now();
    const Graph g = load_csr_file(path);
    AlgorithmResult res = entry.run(g, req);
    s.seconds = seconds_since(t0);
    if (corrupt) corrupt_coloring(g, res.color);
    Colored out{std::move(res.color), std::move(res.ledger), res.palette,
                res.ok};
    check_solve(g, out, s);
  } catch (const std::exception& e) {
    s.error = std::string("threw: ") + e.what();
  }
  return s;
}

// ----------------------------------------------------------- traced pass

/// det: the public calls of delta_color_dense in its order, with the
/// registry's options (registry.cpp run_det).
Colored traced_det(const Graph& g, std::uint64_t seed, SpanRecorder& rec) {
  DeltaColoringOptions opt = scaled_options(g.max_degree());
  opt.engine.num_threads = 1;
  opt.hard.seed = seed;
  Colored out;
  out.palette = g.max_degree();
  out.color.assign(g.num_nodes(), kNoColor);
  LocalContext lctx(out.ledger, opt.engine, opt.hard.seed);

  Acd acd;
  {
    LayerSpan span(rec, "acd", &out.ledger);
    acd = compute_acd(g, out.ledger, opt.acd);
    span.count("cliques", acd.num_cliques());
  }
  if (!acd.is_dense()) throw std::runtime_error("instance is not dense");
  LoopholeSet loopholes;
  {
    LayerSpan span(rec, "core.loopholes", &out.ledger);
    loopholes = find_loopholes_dense(g, acd, out.ledger);
    span.count("found", static_cast<double>(loopholes.loopholes.size()));
  }
  // Counts are recorded on the final attempt's spans only.
  int retries = 0;
  for (;;) {
    Hardness hardness;
    int hardness_span = -1;
    {
      LayerSpan span(rec, "core.hardness");
      hardness = classify_hardness(g, acd, loopholes);
      hardness_span = span.id();
    }
    std::fill(out.color.begin(), out.color.end(), kNoColor);
    HardColoringOutcome outcome;
    {
      LayerSpan span(rec, "core.hard", &out.ledger);
      outcome = color_hard_cliques(g, acd, hardness, out.color, opt.hard, lctx);
      if (!outcome.retry_needed()) {
        rec.arg(hardness_span, "hard_cliques", hardness.num_hard);
        span.count("triads", outcome.stats.num_triads);
        span.count("retries", retries);
        for (const auto& [phase, rounds] : out.ledger.phases())
          if (phase.starts_with("phase"))
            span.count(phase + ".rounds", static_cast<double>(rounds));
        break;
      }
    }
    if (retries >= opt.max_retries)
      throw std::runtime_error("demotion retries exceeded");
    for (const Loophole& l : outcome.demotions) loopholes.add(g, l);
    ++retries;
  }
  {
    LayerSpan span(rec, "core.easy", &out.ledger);
    const EasyColoringStats easy =
        color_easy_and_loopholes(g, loopholes, out.color, lctx);
    span.count("layers", easy.layers);
    span.count("ruling_loopholes", easy.ruling_loopholes);
  }
  {
    LayerSpan span(rec, "graph.check");
    out.ok = is_delta_coloring(g, out.color);
  }
  return out;
}

/// Span name of a phase randomized_delta_color charges wall-clock to.
std::string rand_child_name(const std::string& phase) {
  if (phase == "acd") return "acd";
  if (phase == "loopholes") return "core.loopholes";
  return "randomized." + (phase.starts_with("rand-") ? phase.substr(5) : phase);
}

/// rand: one span around the single randomized_delta_color call. The
/// phase times its ledger charges become child spans, placed back to back
/// from the call's start; what they leave over is the call's self time.
Colored traced_rand(const Graph& g, std::uint64_t seed, SpanRecorder& rec,
                    Metrics& extra) {
  RandomizedOptions opt = scaled_randomized_options(g.max_degree(), seed);
  opt.engine.num_threads = 1;
  RandomizedResult res;
  int id = -1;
  {
    LayerSpan span(rec, "randomized");
    res = randomized_delta_color(g, opt);
    id = span.id();
  }
  const std::int64_t start = rec.spans()[static_cast<std::size_t>(id)].start_ns;
  const std::int64_t end = rec.spans()[static_cast<std::size_t>(id)].end_ns;
  std::int64_t t = start;
  for (const auto& [phase, ms] : res.ledger.times()) {
    const std::int64_t dur = static_cast<std::int64_t>(ms * 1e6);
    const int child = rec.add(rand_child_name(phase), id, t, t + dur);
    // Phases such as rand-easy charge rounds under "<phase>-..." labels.
    std::int64_t rounds = 0;
    for (const auto& [label, r] : res.ledger.phases())
      if (label == phase || label.starts_with(phase + "-")) rounds += r;
    rec.arg(child, "rounds", static_cast<double>(rounds));
    if (phase == "acd")
      rec.arg(child, "cliques", res.stats.num_hard + res.stats.num_easy);
    t += dur;
  }
  rec.ledger_counter(end, res.ledger);
  const RandomizedStats& st = res.stats;
  rec.arg(id, "rounds", static_cast<double>(res.ledger.total()));
  rec.arg(id, "tnodes", st.tnodes_placed);
  rec.arg(id, "placement_yield",
          st.num_hard > 0 ? static_cast<double>(st.tnodes_placed) / st.num_hard
                          : 0.0);
  rec.arg(id, "components", st.components);
  rec.arg(id, "max_component_nodes", st.max_component_vertices);
  extra["core.hardness.hard_cliques"] = st.num_hard;
  extra["randomized.self.s"] = rec.self_seconds(id);

  Colored out;
  out.color = std::move(res.color);
  out.ledger = std::move(res.ledger);
  out.palette = g.max_degree();
  out.ok = res.valid;
  return out;
}

/// trial: the calls of the registry entry (registry.cpp run_trial), in
/// its order.
Colored traced_trial(const Graph& g, std::uint64_t seed, SpanRecorder& rec) {
  EngineOptions engine;
  engine.num_threads = 1;
  Colored out;
  out.palette = g.max_degree() + 1;
  {
    LayerSpan span(rec, "local.trial", &out.ledger);
    out.color =
        color_trial_message_passing(g, seed, out.ledger, "trial", engine);
  }
  {
    LayerSpan span(rec, "graph.check");
    out.ok = is_proper_coloring(g, out.color, out.palette);
    // The registry builds its summary line from this report.
    [[maybe_unused]] const std::string summary =
        check_coloring(g, out.color).describe();
  }
  return out;
}

Solve traced_solve(const std::string& path, const Workload& w,
                   std::uint64_t seed, SpanRecorder& rec, Metrics& extra) {
  Solve s;
  s.traced = true;
  try {
    const int root = rec.open("solve");
    Graph g;
    {
      LayerSpan span(rec, "graph.load");
      g = load_csr_file(path);
    }
    const Colored out = w.algo == "det"    ? traced_det(g, seed, rec)
                        : w.algo == "rand" ? traced_rand(g, seed, rec, extra)
                                           : traced_trial(g, seed, rec);
    rec.close(root);
    s.seconds = rec.spans()[static_cast<std::size_t>(root)].seconds();
    check_solve(g, out, s);
  } catch (const std::exception& e) {
    s.error = std::string("threw: ") + e.what();
  }
  return s;
}

/// Per-layer metrics from the recorded spans: "<span>.s" is the summed
/// duration of the spans of that name ("<span>_s" for graph.*, as the
/// metric names have it) and "<span>.<arg>" sums their arguments.
Metrics layer_metrics(const SpanRecorder& rec) {
  Metrics m;
  for (const SpanRecorder::Span& s : rec.spans()) {
    if (s.parent == -1) continue;  // the whole traced solve
    m[s.name + (s.name.starts_with("graph.") ? "_s" : ".s")] += s.seconds();
    for (const auto& [key, value] : s.args) m[s.name + "." + key] += value;
  }
  return m;
}

// ------------------------------------------------------------- reporting

/// Resident high-water mark, reset so that set-up does not count.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.starts_with("VmHWM:"))
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

/// The JSON number as measured: enough digits that no timing rounds.
std::string num(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

std::string metrics_json(const Metrics& m, std::span<const MetricSpec> specs) {
  std::ostringstream os;
  os << "{";
  const char* sep = "";
  for (const MetricSpec& spec : specs) {
    const auto it = m.find(std::string(spec.name));
    os << sep << "\"" << spec.name << "\":{\"value\":"
       << num(it != m.end() ? it->second : 0.0) << ",\"unit\":\"" << spec.unit
       << "\"}";
    sep = ",";
  }
  os << "}";
  return os.str();
}

int usage() {
  std::cerr << "usage: dcbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--cliques K] [--corrupt-solve I]\n"
               "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  int cliques = kFullCliques;
  int corrupt_solve = -1;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* v = argv[i + 1];
    char* rest = nullptr;
    if (key == "--workload") {
      for (const Workload& w : kWorkloads)
        if (w.name == v) a.workload = &w;
      if (a.workload == nullptr) return false;
      continue;
    }
    if (key == "--work-dir") {
      a.work_dir = v;
      continue;
    }
    const long long n = std::strtoll(v, &rest, 10);
    if (rest == v || *rest != '\0' || n < 0) return false;
    if (key == "--seed") a.seed = static_cast<std::uint64_t>(n);
    else if (key == "--seconds") a.seconds = static_cast<double>(n);
    else if (key == "--trace" && n <= 1) a.trace = n == 1;
    else if (key == "--cliques" && n >= 2) a.cliques = static_cast<int>(n);
    else if (key == "--corrupt-solve") a.corrupt_solve = static_cast<int>(n);
    else return false;
  }
  return argc % 2 == 1 && a.workload != nullptr && !a.work_dir.empty() &&
         a.seconds >= 1;
}

/// Each workload's prediction for the traced pass (RATIONALE.md).
std::string prediction(const Workload& w, const Metrics& layer, double traced_s,
                       const std::string& top_self, bool* holds) {
  const auto get = [&](const char* k) {
    const auto it = layer.find(k);
    return it != layer.end() ? it->second : 0.0;
  };
  std::ostringstream os;
  if (w.name == "trial-hard-1m") {
    const double share =
        (get("local.trial.s") + get("graph.load_s")) / traced_s;
    *holds = share >= 0.75;
    os << "local.trial + graph.load = " << num(share)
       << " of the solve (>= 0.75)";
  } else if (w.name == "det-mixed-1m") {
    const double share = get("core.easy.s") / traced_s;
    *holds = share >= 0.2;
    os << "core.easy = " << num(share) << " of the solve (>= 0.2)";
  } else {
    const char* want =
        w.algo == "det" ? "core.hard" : "randomized.preshattering";
    *holds = top_self == want;
    os << "largest self time is " << top_self << " (predicted " << want << ")";
  }
  return os.str();
}

struct Setup {
  std::vector<double> total_s, gen_s, write_s;
  NodeId n = 0;
  EdgeId m = 0;
  std::uint64_t file_bytes = 0;
};

/// Generates the instance and writes it to `path`, kSetups times; every
/// copy is the same, so the file left behind is the one the solves load.
Setup set_up(const Workload& w, const Args& a, const std::string& path) {
  CliqueInstanceOptions gen;
  gen.num_cliques = a.cliques;
  gen.delta = kDelta;
  gen.clique_size = kDelta;
  gen.easy_fraction = w.easy_percent / 100.0;
  gen.seed = a.seed;
  Setup s;
  for (int r = 0; r < kSetups; ++r) {
    const Clock::time_point t0 = Clock::now();
    const CliqueInstance inst = clique_blowup_instance(gen);
    s.gen_s.push_back(seconds_since(t0));
    const Clock::time_point t1 = Clock::now();
    write_csr_file(path, inst.graph);
    s.write_s.push_back(seconds_since(t1));
    s.total_s.push_back(seconds_since(t0));
    s.n = inst.graph.num_nodes();
    s.m = inst.graph.num_edges();
  }
  // Hand the generator's freed heap back, so it is not resident while
  // the solves' high-water mark is taken.
  malloc_trim(0);
  s.file_bytes = std::filesystem::file_size(path);
  return s;
}

/// The gate: the majority signature among passing solves is the run's;
/// every solve that differs from it, or from a recorded reference, fails.
/// Returns the number of failed solves.
int apply_gate(std::vector<Solve>& solves, const Workload& w, const Args& a,
               Signature& ref, std::string& golden) {
  std::map<std::uint64_t, int> votes;
  int best = 0;
  for (const Solve& s : solves)
    if (s.error.empty() && ++votes[s.sig.hash] > best) {
      best = votes[s.sig.hash];
      ref = s.sig;
    }
  golden = "none";
  for (const Reference& r : kReference)
    if (r.workload == w.name && r.cliques == a.cliques && r.seed == a.seed)
      golden = r.rounds == ref.rounds && r.hash == ref.hash ? "match"
                                                            : "mismatch";
  int failed = 0;
  for (Solve& s : solves) {
    if (s.error.empty() && !(s.sig == ref))
      s.error = "hash or per-phase rounds differ from the run's majority";
    if (s.error.empty() && golden == "mismatch")
      s.error = "rounds or hash differ from the recorded reference";
    failed += !s.error.empty();
  }
  return failed;
}

/// Build and environment facts that decide what a run measured.
std::string provenance_json(const Args& a, std::uint64_t file_bytes,
                            bool rss_reset) {
  std::ostringstream os;
  std::string overrides;
  for (const char* var : {"DELTACOLOR_SIMD", "DELTACOLOR_THREADS",
                          "DELTACOLOR_CSR_VERIFY"})
    if (const char* v = std::getenv(var))
      overrides += (overrides.empty() ? "\"" : ",\"") + std::string(var) +
                   "=" + v + "\"";
  // Resolved as csr_file.cpp resolves it: unknown values mean auto.
  const std::string env = env_or("DELTACOLOR_CSR_VERIFY", "auto");
  const char* verify = env == "always" || env == "1"  ? "always"
                       : env == "never" || env == "0" ? "never"
                                                      : "auto";
  const bool sections = verify == std::string_view("always") ||
                        (verify == std::string_view("auto") &&
                         file_bytes <= kAutoVerifyLimit);
  os << "{\"build_type\":\"" << DCBENCH_BUILD_TYPE << "\",\"simd\":\""
     << simd::to_string(simd::active_level())
     << "\",\"engine_workers\":" << ThreadPool::default_workers()
     << ",\"csr_verify\":\"" << verify
     << (sections ? " (sections checksummed)" : " (header only)")
     << "\",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"seed\":" << a.seed
     << ",\"rss_reset\":" << (rss_reset ? "true" : "false")
     << ",\"overrides\":[" << overrides << "]}";
  return os.str();
}

int run(const Args& a) {
  const Workload& w = *a.workload;
  const AlgorithmEntry* entry = find_algorithm(w.algo);
  if (entry == nullptr) return usage();
  ThreadPool::set_default_workers(1);
  std::filesystem::create_directories(a.work_dir);
  const std::string stem = a.work_dir + "/" + std::string(w.name) + "-seed" +
                           std::to_string(a.seed);
  const std::string graph_path = stem + ".dcsr";
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() { std::filesystem::remove(path); }
  } remove_graph{graph_path};

  const Setup setup = set_up(w, a, graph_path);

  const bool rss_reset = reset_peak_rss();
  std::vector<Solve> solves;
  const Clock::time_point loop0 = Clock::now();
  do {
    const bool corrupt = static_cast<int>(solves.size()) == a.corrupt_solve;
    solves.push_back(untraced_solve(graph_path, *entry, a.seed, corrupt));
  } while (seconds_since(loop0) < a.seconds);
  const double loop_s = seconds_since(loop0);
  const double peak_rss = peak_rss_mib();

  SpanRecorder rec;
  Metrics layer;
  if (a.trace)
    solves.push_back(traced_solve(graph_path, w, a.seed, rec, layer));

  Signature ref;
  std::string golden;
  const int failed = apply_gate(solves, w, a, ref, golden);
  const int attempted = static_cast<int>(solves.size());
  std::vector<double> solve_s;
  for (const Solve& s : solves)
    if (!s.traced && s.seconds > 0) solve_s.push_back(s.seconds);
  std::sort(solve_s.begin(), solve_s.end());
  const double file_mib = setup.file_bytes / 1048576.0;
  Metrics e2e;
  e2e["setup_s"] = median(setup.total_s);
  e2e["solve_s"] = median(solve_s);
  e2e["peak_rss_mb"] = peak_rss;
  e2e["rounds"] = static_cast<double>(ref.rounds);
  e2e["ok_frac"] = 1.0 - static_cast<double>(failed) / attempted;

  const std::string prov = provenance_json(a, setup.file_bytes, rss_reset);
  std::cout << "dcbench: workload=" << w.name << " algo=" << w.algo
            << " n=" << setup.n << " m=" << setup.m << " Delta=" << kDelta
            << " seed=" << a.seed << "\nprovenance: " << prov << "\n";
  if (prov.find("\"overrides\":[]") == std::string::npos)
    std::cout << "WARNING: environment overrides are set; figures are not "
                 "comparable\n";
  std::cout << "setup: " << kSetups << " x (gen + write), median "
            << num(e2e["setup_s"]) << " s (gen " << num(median(setup.gen_s))
            << " s, write " << num(median(setup.write_s)) << " s), file "
            << num(file_mib) << " MiB\n";
  std::cout << "solves: " << solve_s.size() << " untraced in " << num(loop_s)
            << " s, median " << num(e2e["solve_s"]) << " s";
  if (!solve_s.empty())
    std::cout << ", min " << num(solve_s.front()) << " s, max "
              << num(solve_s.back()) << " s";
  // The highest percentile with at least ten solves beyond it.
  if (solve_s.size() > 10) {
    const std::size_t k = solve_s.size() - 11;
    std::cout << ", p" << 100 * (k + 1) / solve_s.size() << " "
              << num(solve_s[k]) << " s";
  }
  std::cout << "\npeak_rss: " << num(peak_rss)
            << " MiB over the untraced solves"
            << (rss_reset ? "" : " (VmHWM not resettable: includes set-up)")
            << "\ngate: " << attempted - failed << "/" << attempted
            << " solves ok, rounds " << ref.rounds << ", hash " << hex(ref.hash)
            << ", reference " << golden << "\n";
  for (const Solve& s : solves)
    if (!s.error.empty())
      std::cout << "  FAILED " << (s.traced ? "traced" : "untraced")
                << " solve: " << s.error << "\n";

  std::string trace_file, predicted;
  bool holds = false;
  if (a.trace) {
    for (const auto& [k, v] : layer_metrics(rec)) layer[k] += v;
    layer["graph.gen_s"] = median(setup.gen_s);
    layer["graph.write_s"] = median(setup.write_s);
    layer["graph.file_mb"] = file_mib;
    const double traced_s = solves.back().seconds;
    layer["trace.overhead_s"] = traced_s - e2e["solve_s"];
    std::string top_self;
    double top = -1.0;
    std::cout << "traced solve: " << num(traced_s)
              << " s; self time by layer span:\n";
    // A traced solve that threw has no duration and no shares.
    for (std::size_t i = 0; traced_s > 0 && i < rec.spans().size(); ++i) {
      const SpanRecorder::Span& s = rec.spans()[i];
      if (s.parent == -1) continue;
      const double self = rec.self_seconds(static_cast<int>(i));
      std::cout << "  " << s.name << ": self " << num(self) << " s ("
                << num(100.0 * self / traced_s) << "%), span "
                << num(s.seconds()) << " s\n";
      if (self > top) {
        top = self;
        top_self = s.name;
      }
    }
    if (traced_s > 0)
      predicted = prediction(w, layer, traced_s, top_self, &holds);
    std::cout << "prediction " << (holds ? "holds" : "FAILS") << ": "
              << predicted << "\n";
    trace_file = stem + ".trace.json";
    std::ofstream(trace_file)
        << rec.chrome_json("dcbench " + std::string(w.name));
    std::cout << "trace: " << trace_file << "\n";
  }

  std::ofstream report(stem + ".report.json");
  report << "{\"workload\":\"" << w.name << "\",\"algo\":\"" << w.algo
         << "\",\"cliques\":" << a.cliques << ",\"n\":" << setup.n
         << ",\"m\":" << setup.m << ",\"provenance\":" << prov
         << ",\"reference\":{\"rounds\":" << ref.rounds << ",\"hash\":\""
         << hex(ref.hash) << "\",\"golden\":\"" << golden << "\"},\"solves\":[";
  for (std::size_t i = 0; i < solves.size(); ++i) {
    const Solve& s = solves[i];
    report << (i ? "," : "") << "{\"seconds\":" << num(s.seconds)
           << ",\"traced\":" << (s.traced ? "true" : "false") << ",\"ok\":"
           << (s.error.empty() ? "true" : "false") << ",\"hash\":\""
           << hex(s.sig.hash) << "\",\"rounds\":" << s.sig.rounds << "}";
  }
  report << "],\"end_to_end\":" << metrics_json(e2e, kEndToEnd)
         << ",\"per_layer\":" << metrics_json(layer, kPerLayer)
         << ",\"prediction\":{\"text\":\"" << predicted << "\",\"holds\":"
         << (holds ? "true" : "false") << "},\"trace_file\":\"" << trace_file
         << "\"}\n";
  std::cout << "report: " << stem << ".report.json\n";

  std::cout << "{\"correct\":" << (failed == 0 ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":"
            << (a.trace ? metrics_json(layer, kPerLayer)
                        : metrics_json(e2e, kEndToEnd))
            << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  if (std::getenv("DELTACOLOR_FAULTS") != nullptr) {
    std::cerr << "dcbench: refusing to time while DELTACOLOR_FAULTS is set: a "
                 "fault-injected run measures a different program\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "dcbench: " << e.what() << "\n";
    return 1;
  }
}
