// Unit tests for the common utilities: statistics/fitting, the PRNG, the
// whole-token number parser, the round ledger, and the thread pool's
// chunked dispatch of an empty range.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "local/ledger.hpp"

namespace deltacolor {
namespace {

// --- stats -----------------------------------------------------------------

TEST(Stats, SummaryBasics) {
  const Summary s = summarize({1, 2, 3, 4, 100});
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 100);
  EXPECT_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
  EXPECT_GT(s.stddev, 0);
  EXPECT_FALSE(format_summary(s).empty());
}

TEST(Stats, SummaryEvenCountMedianAndEmpty) {
  EXPECT_DOUBLE_EQ(summarize({1, 2, 3, 4}).median, 2.5);
  const Summary empty = summarize({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.mean, 0);
}

TEST(Stats, LinearFitExact) {
  const LinearFit f = fit_linear({1, 2, 3, 4}, {5, 7, 9, 11});  // y = 3+2x
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(Stats, LinearFitDegenerate) {
  EXPECT_EQ(fit_linear({1}, {2}).slope, 0);          // too few points
  EXPECT_EQ(fit_linear({3, 3, 3}, {1, 2, 3}).slope, 0);  // vertical
  EXPECT_THROW(fit_linear({1, 2}, {1}), std::logic_error);  // size mismatch
}

TEST(Stats, LogFitRecoversLogarithmicData) {
  std::vector<double> n, y;
  for (double k = 8; k <= 20; ++k) {
    n.push_back(std::pow(2.0, k));
    y.push_back(10 + 3 * k);  // 10 + 3*log2(n)
  }
  const LinearFit f = fit_log(n, y);
  EXPECT_NEAR(f.slope, 3.0, 1e-6);
  EXPECT_NEAR(f.intercept, 10.0, 1e-6);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(Stats, LogStarValues) {
  EXPECT_EQ(log_star(1), 0);
  EXPECT_EQ(log_star(2), 1);
  EXPECT_EQ(log_star(4), 2);
  EXPECT_EQ(log_star(16), 3);
  EXPECT_EQ(log_star(65536), 4);
  EXPECT_EQ(log_star(1e18), 5);
}

// --- rng -------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  Rng a2(42);
  EXPECT_NE(a2(), c());
}

TEST(RngTest, BelowInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> bucket(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.below(10);
    ASSERT_LT(x, 10u);
    ++bucket[static_cast<std::size_t>(x)];
  }
  for (const int b : bucket) {
    EXPECT_GT(b, 700);
    EXPECT_LT(b, 1300);
  }
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, HashMixStableAndSpread) {
  EXPECT_EQ(hash_mix(1, 2, 3), hash_mix(1, 2, 3));
  EXPECT_NE(hash_mix(1, 2, 3), hash_mix(1, 2, 4));
  EXPECT_NE(hash_mix(1, 2, 3), hash_mix(2, 2, 3));
}

// --- whole-token number parsing ---------------------------------------------

TEST(Parse, WholeToken) {
  std::int64_t i = 42;
  EXPECT_TRUE(parse_whole<std::int64_t>("345", &i));
  EXPECT_EQ(i, 345);
  // Trailing text, a trailing space, an empty token and overflow are
  // rejected and leave the value alone.
  EXPECT_FALSE(parse_whole<std::int64_t>("3x", &i));
  EXPECT_FALSE(parse_whole<std::int64_t>("7 ", &i));
  EXPECT_FALSE(parse_whole<std::int64_t>("", &i));
  EXPECT_FALSE(parse_whole<std::int64_t>("99999999999999999999", &i));
  EXPECT_EQ(i, 345);
  // No sign on an unsigned value, and no leading plus on any.
  std::uint64_t u = 0;
  EXPECT_FALSE(parse_whole<std::uint64_t>("-1", &u));
  EXPECT_FALSE(parse_whole<std::uint64_t>("+3", &u));
  EXPECT_TRUE(parse_whole<std::uint64_t>("18446744073709551615", &u));
  // The range bounds are inclusive.
  int n = 0;
  EXPECT_TRUE(parse_whole("1", &n, 1, 5));
  EXPECT_TRUE(parse_whole("5", &n, 1, 5));
  EXPECT_EQ(n, 5);
  EXPECT_FALSE(parse_whole("0", &n, 1, 5));
  EXPECT_FALSE(parse_whole("6", &n, 1, 5));
  EXPECT_EQ(n, 5);
  // A double, as `dcolor gen blowup` reads its easy%.
  double d = 0;
  EXPECT_TRUE(parse_whole("25.5", &d, 0.0, 100.0));
  EXPECT_DOUBLE_EQ(d, 25.5);
  EXPECT_FALSE(parse_whole("25%", &d, 0.0, 100.0));
  EXPECT_FALSE(parse_whole("1.5ms", &d, 0.0, 100.0));
  EXPECT_FALSE(parse_whole("100.5", &d, 0.0, 100.0));
  EXPECT_DOUBLE_EQ(d, 25.5);
}

// --- ledger ----------------------------------------------------------------

TEST(Ledger, ChargesAccumulatePerPhase) {
  RoundLedger l;
  l.charge("a", 3);
  l.charge("b", 5, 2);
  l.charge("a", 1);
  EXPECT_EQ(l.total(), 14);
  EXPECT_EQ(l.phase_total("a"), 4);
  EXPECT_EQ(l.phase_total("b"), 10);
  EXPECT_EQ(l.phase_total("missing"), 0);
  EXPECT_NE(l.report().find("TOTAL: 14"), std::string::npos);
}

TEST(Ledger, RejectsNegativeCharges) {
  RoundLedger l;
  EXPECT_THROW(l.charge("a", -1), std::logic_error);
  EXPECT_THROW(l.charge("a", 1, 0), std::logic_error);
}

TEST(Ledger, PhaseOrderIsFirstChargeOrder) {
  RoundLedger l;
  l.charge("z", 1);
  l.charge("a", 1);
  l.charge("z", 1);
  ASSERT_EQ(l.phases().size(), 2u);
  EXPECT_EQ(l.phases()[0].first, "z");
  EXPECT_EQ(l.phases()[1].first, "a");
}

// --- ThreadPool::for_range chunks ----------------------------------------

TEST(ThreadPoolChunks, EmptyBoundsRunNothing) {
  // begin == end: every worker's chunk is empty and fn must never run,
  // wherever the span starts and however many workers share it.
  for (const int workers : {1, 4}) {
    ThreadPool pool(workers);
    std::atomic<int> calls{0};
    for (const std::size_t at : {std::size_t{0}, std::size_t{7}})
      pool.for_range(at, at, [&](int, std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace deltacolor
