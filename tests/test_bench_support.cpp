// Tests for the SweepDriver of the concurrent experiment suite:
// index-addressed determinism serial vs parallel, engine serialization
// under a parallel sweep, exception order and the SWEEP line.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "bench_support/sweep.hpp"

namespace deltacolor::bench {
namespace {

TEST(SweepDriver, RowsAreIndexAddressed) {
  SweepOptions opt;
  opt.workers = 1;
  SweepDriver driver(opt);
  const auto rows = driver.run<int>(
      8, [](std::size_t i, EngineOptions) { return static_cast<int>(i * i); });
  ASSERT_EQ(rows.size(), 8u);
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(rows[i], static_cast<int>(i * i));
  // The summary line carries the shape and the wall-clock, nothing else.
  const std::string report = driver.report();
  const std::string head = "SWEEP cells=8 workers=1 wall_ms=";
  EXPECT_EQ(report.rfind(head, 0), 0u) << report;
  EXPECT_EQ(report.find(' ', head.size()), std::string::npos) << report;
}

TEST(SweepDriver, ParallelMatchesSerial) {
  const auto cell = [](std::size_t i, EngineOptions) {
    return static_cast<int>(3 * i + 1);
  };
  SweepOptions serial_opt;
  serial_opt.workers = 1;
  SweepDriver serial(serial_opt);
  const auto want = serial.run<int>(16, cell);

  SweepOptions par_opt;
  par_opt.workers = 4;
  SweepDriver parallel(par_opt);
  const auto got = parallel.run<int>(16, cell);

  EXPECT_EQ(got, want);
}

TEST(SweepDriver, ParallelSweepSerializesCellEngines) {
  SweepOptions opt;
  opt.workers = 4;
  opt.cell_engine = EngineOptions{8};
  SweepDriver driver(opt);
  driver.run<int>(8, [&](std::size_t, EngineOptions engine) {
    // One layer parallelizes, never both: the sweep owns the pool, so the
    // cell's engine must come back serial.
    EXPECT_EQ(engine.num_threads, 1);
    return 0;
  });

  SweepOptions serial_opt = opt;
  serial_opt.workers = 1;
  SweepDriver serial(serial_opt);
  serial.run<int>(2, [&](std::size_t, EngineOptions engine) {
    EXPECT_EQ(engine.num_threads, 8)
        << "a serial sweep passes the caller's engine through";
    return 0;
  });
}

TEST(SweepDriver, LowestIndexExceptionWins) {
  for (const int workers : {1, 4}) {
    SweepOptions opt;
    opt.workers = workers;
    SweepDriver driver(opt);
    try {
      driver.run<int>(12, [](std::size_t i, EngineOptions) -> int {
        if (i == 3 || i == 9) throw std::runtime_error("cell " +
                                                       std::to_string(i));
        return 0;
      });
      FAIL() << "expected the cell exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell 3");
    }
  }
}

}  // namespace
}  // namespace deltacolor::bench
