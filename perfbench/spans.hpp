// In-memory span recorder for the benchmark's traced pass.
//
// A span is a named interval with a parent, recorded around one call into
// a layer's public functions. Spans and counter samples stay in memory
// until the run ends; chrome_json() renders them as Chrome trace-event
// JSON ({"traceEvents":[...]}, which Perfetto opens). A span's self time
// is its duration minus the durations of its direct children.
#pragma once

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "local/ledger.hpp"

namespace dcbench {

using Args = std::vector<std::pair<std::string, double>>;

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    Args args;
    /// Placed from a duration the library measured itself, not timed here.
    bool synthesized = false;

    double seconds() const {
      return 1e-9 * static_cast<double>(end_ns - start_ns);
    }
  };

  /// Opens a span under the innermost open span.
  int open(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), parent, now_ns(), 0, {}, false});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Adds a closed child span at an explicit position.
  int add(std::string name, int parent, std::int64_t start_ns,
          std::int64_t end_ns) {
    spans_.push_back(Span{std::move(name), parent, start_ns, end_ns, {}, true});
    return static_cast<int>(spans_.size()) - 1;
  }

  void arg(int id, std::string key, double value) {
    spans_[static_cast<std::size_t>(id)].args.emplace_back(std::move(key),
                                                           value);
  }

  /// Ledger rounds so far, one counter series per phase.
  void ledger_counter(std::int64_t ts_ns,
                      const deltacolor::RoundLedger& ledger) {
    Args values;
    for (const auto& [phase, rounds] : ledger.phases())
      values.emplace_back(phase, static_cast<double>(rounds));
    counters_.emplace_back(ts_ns, std::move(values));
  }

  const std::vector<Span>& spans() const { return spans_; }

  double self_seconds(int id) const {
    double self = spans_[static_cast<std::size_t>(id)].seconds();
    for (const Span& s : spans_)
      if (s.parent == id) self -= s.seconds();
    return self;
  }

  std::string chrome_json(std::string_view process_name) const {
    std::ostringstream os;
    os.precision(15);
    const auto us = [](std::int64_t ns) {
      return 1e-3 * static_cast<double>(ns);
    };
    os << "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\","
          "\"pid\":1,\"tid\":1,\"args\":{\"name\":\""
       << process_name << "\"}}";
    for (const Span& s : spans_) {
      os << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"layer\",\"ph\":\"X\","
         << "\"pid\":1,\"tid\":1,\"ts\":" << us(s.start_ns)
         << ",\"dur\":" << us(s.end_ns - s.start_ns) << ",\"args\":{";
      const char* sep = "";
      for (const auto& [key, value] : s.args) {
        os << sep << "\"" << key << "\":" << value;
        sep = ",";
      }
      if (s.synthesized) os << sep << "\"placed_from_ledger_ms\":true";
      os << "}}";
    }
    for (const auto& [ts, values] : counters_) {
      os << ",\n{\"name\":\"ledger rounds\",\"ph\":\"C\",\"pid\":1,\"ts\":"
         << us(ts) << ",\"args\":{";
      const char* sep = "";
      for (const auto& [phase, rounds] : values) {
        os << sep << "\"" << phase << "\":" << rounds;
        sep = ",";
      }
      os << "}}";
    }
    os << "\n]}\n";
    return os.str();
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::pair<std::int64_t, Args>> counters_;
};

/// One call into a layer: a span that, given the ledger the call charges,
/// records the rounds charged inside it and a ledger counter sample at its
/// end.
class LayerSpan {
 public:
  LayerSpan(SpanRecorder& rec, std::string name,
            const deltacolor::RoundLedger* ledger = nullptr)
      : rec_(rec),
        ledger_(ledger),
        rounds0_(ledger != nullptr ? ledger->total() : 0),
        id_(rec.open(std::move(name))) {}

  ~LayerSpan() {
    rec_.close(id_);
    if (ledger_ == nullptr) return;
    rec_.arg(id_, "rounds", static_cast<double>(ledger_->total() - rounds0_));
    rec_.ledger_counter(rec_.spans()[static_cast<std::size_t>(id_)].end_ns,
                        *ledger_);
  }

  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

  int id() const { return id_; }
  void count(std::string key, double value) {
    rec_.arg(id_, std::move(key), value);
  }

 private:
  SpanRecorder& rec_;
  const deltacolor::RoundLedger* ledger_;
  std::int64_t rounds0_;
  int id_;
};

}  // namespace dcbench
