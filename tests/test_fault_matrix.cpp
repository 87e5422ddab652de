// The fault matrix: every FaultCategory is injected through the
// FaultInjector's probe sites and must come out the other side of the
// SweepDriver caught, categorized, retried or quarantined — without
// disturbing any other cell's row. Also pins the determinism contract:
// under injected faults, rows and merged ledgers are identical between a
// serial and a parallel sweep (fault coordinates are (cell, attempt)
// addressed, never schedule-addressed).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_support/sweep.hpp"
#include "bench_support/workloads.hpp"
#include "common/arena.hpp"
#include "common/errors.hpp"
#include "graph/generators.hpp"
#include "local/context.hpp"
#include "local/faults.hpp"
#include "primitives/mis.hpp"
#include "registry/registry.hpp"

namespace deltacolor::bench {
namespace {

/// Arms `plan` for the scope of one test and disarms on exit, so the
/// process-wide injector never leaks into other tests.
class ArmedScope {
 public:
  explicit ArmedScope(std::vector<FaultSpec> plan, std::uint64_t seed = 1) {
    FaultInjector::global().arm(std::move(plan), seed);
  }
  ~ArmedScope() { FaultInjector::global().disarm(); }
};

FaultSpec spec_of(std::string_view text) {
  FaultSpec spec;
  EXPECT_TRUE(parse_fault_spec(text, &spec)) << text;
  return spec;
}

/// A small deterministic cell: charges `10 + i` rounds to "work" through a
/// LocalContext (so the phase-charge probe site runs) and returns i*i.
int run_work_cell(std::size_t i, CellContext& ctx) {
  LocalContext local(ctx.ledger(), ctx.engine());
  DefaultPhase phase(local, "work");
  local.charge(static_cast<std::int64_t>(10 + i));
  return static_cast<int>(i * i);
}

TEST(FaultSpecGrammar, ParsesCoordinatesAndPayloads) {
  const FaultSpec s = spec_of(
      "engine-exception@cell=3,round=7,phase=work,attempts=2");
  EXPECT_EQ(s.category, FaultCategory::kEngineException);
  EXPECT_EQ(s.cell, 3);
  EXPECT_EQ(s.round, 7);
  EXPECT_EQ(s.phase, "work");
  EXPECT_EQ(s.attempts, 2);

  const FaultSpec budget = spec_of("round-budget-exceeded@extra_rounds=500");
  EXPECT_EQ(budget.category, FaultCategory::kRoundBudgetExceeded);
  EXPECT_EQ(budget.extra_rounds, 500);

  const FaultSpec sleepy = spec_of("wall-clock-timeout@sleep_ms=1.5");
  EXPECT_DOUBLE_EQ(sleepy.sleep_ms, 1.5);

  FaultSpec out;
  EXPECT_FALSE(parse_fault_spec("no-such-category@cell=0", &out));
  EXPECT_FALSE(parse_fault_spec("engine-exception@bogus=1", &out));
  EXPECT_FALSE(parse_fault_spec("engine-exception@cell=", &out));
}

// The numeric parsers inspect the end pointer strtoll/strtod leave behind;
// it must still point into live text when it is read (ASan flags a
// temporary string here as stack-use-after-scope).
TEST(FaultSpecGrammar, NumbersRejectTrailingTextAndOverflow) {
  FaultSpec out;
  EXPECT_TRUE(parse_fault_spec("engine-exception@cell=12,round=345", &out));
  EXPECT_EQ(out.cell, 12);
  EXPECT_EQ(out.round, 345);
  EXPECT_FALSE(parse_fault_spec("engine-exception@cell=3x", &out));
  EXPECT_FALSE(parse_fault_spec("engine-exception@round=7 ", &out));
  EXPECT_FALSE(
      parse_fault_spec("engine-exception@cell=99999999999999999999", &out));
  EXPECT_TRUE(parse_fault_spec("wall-clock-timeout@sleep_ms=2.25", &out));
  EXPECT_DOUBLE_EQ(out.sleep_ms, 2.25);
  EXPECT_FALSE(parse_fault_spec("wall-clock-timeout@sleep_ms=1.5ms", &out));
}

TEST(FaultGrammar, UnknownCategoryGetsADidYouMean) {
  FaultSpec spec;
  std::string error;
  EXPECT_FALSE(parse_fault_spec("process-kil@cell=1", &spec, &error));
  EXPECT_NE(error.find("process-kill"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(parse_fault_spec("engine-exeption@round=1", &spec, &error));
  EXPECT_NE(error.find("engine-exception"), std::string::npos) << error;
}

TEST(FaultGrammar, UnknownKeyGetsADidYouMean) {
  FaultSpec spec;
  std::string error;
  EXPECT_FALSE(parse_fault_spec("engine-exception@rond=1", &spec, &error));
  EXPECT_NE(error.find("round"), std::string::npos) << error;
}

TEST(FaultGrammar, MalformedPairsAndValuesAreRejected) {
  FaultSpec spec;
  std::string error;
  EXPECT_FALSE(parse_fault_spec("engine-exception@round", &spec, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(parse_fault_spec("engine-exception@round=abc", &spec, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(parse_fault_spec("", &spec, &error));
  EXPECT_FALSE(error.empty());
}

// process-kill fires only at cell start, which probes with no round; a
// round= coordinate would parse and then never fire.
TEST(FaultGrammar, ProcessKillRejectsARoundCoordinate) {
  FaultSpec spec;
  std::string error;
  EXPECT_FALSE(parse_fault_spec("process-kill@round=1", &spec, &error));
  EXPECT_NE(error.find("round"), std::string::npos) << error;
  EXPECT_TRUE(parse_fault_spec("process-kill@cell=2", &spec, &error))
      << error;
  EXPECT_EQ(spec.category, FaultCategory::kProcessKill);
  EXPECT_EQ(spec.cell, 2);
}

TEST(FaultMatrix, EngineExceptionIsCaughtAndQuarantined) {
  ArmedScope armed({spec_of("engine-exception@cell=2,attempts=0")});
  SweepOptions opt;
  opt.workers = 1;
  opt.retry.max_attempts = 2;
  opt.retry.quarantine = true;
  SweepDriver driver(opt);
  const auto result = driver.run_cells<int>(5, run_work_cell);
  ASSERT_EQ(result.outcomes.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == 2) continue;
    EXPECT_EQ(result.outcomes[i].status, CellStatus::kOk);
    EXPECT_EQ(result.rows[i], static_cast<int>(i * i))
        << "other cells keep their rows";
  }
  const CellOutcome& oc = result.outcomes[2];
  EXPECT_EQ(oc.status, CellStatus::kQuarantined);
  EXPECT_EQ(oc.attempts, 2);
  EXPECT_EQ(oc.category, FaultCategory::kEngineException);
  EXPECT_NE(oc.error.find("injected engine exception"), std::string::npos);
  EXPECT_EQ(result.rows[2], 0) << "quarantined cell keeps the default row";
  EXPECT_FALSE(result.all_ok());
  EXPECT_EQ(result.quarantined(), 1u);
}

TEST(FaultMatrix, TransientFaultRetriesThenSucceeds) {
  // attempts=1 (the default): the fault fires on attempt 0 only, so the
  // retry — which runs under attempt 1 — succeeds.
  ArmedScope armed({spec_of("engine-exception@cell=1")});
  SweepOptions opt;
  opt.workers = 1;
  opt.retry.max_attempts = 3;
  opt.retry.quarantine = true;
  SweepDriver driver(opt);
  const auto result = driver.run_cells<int>(3, run_work_cell);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::kRetried);
  EXPECT_EQ(result.outcomes[1].attempts, 2);
  EXPECT_EQ(result.rows[1], 1) << "the retried attempt's row is kept";
  EXPECT_TRUE(result.all_ok());
  // The re-run coordination was charged: one "retry" round in the ledger.
  EXPECT_EQ(driver.ledger().phase_total("retry"), 1);
}

TEST(FaultMatrix, RoundBudgetInflationTripsTheRealBudgetCheck) {
  // The injector inflates cell 0's "work" charge by 1000 rounds; the
  // driver's *real* budget enforcement must classify it.
  ArmedScope armed(
      {spec_of("round-budget-exceeded@cell=0,attempts=0,extra_rounds=1000")});
  SweepOptions opt;
  opt.workers = 1;
  opt.retry.round_budget = 100;
  opt.retry.quarantine = true;
  SweepDriver driver(opt);
  const auto result = driver.run_cells<int>(2, run_work_cell);
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kQuarantined);
  EXPECT_EQ(result.outcomes[0].category,
            FaultCategory::kRoundBudgetExceeded);
  EXPECT_NE(result.outcomes[0].error.find("budget"), std::string::npos);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::kOk);
  EXPECT_EQ(result.rows[1], 1);
}

TEST(FaultMatrix, InjectedStallTripsTheRealDeadline) {
  ArmedScope armed(
      {spec_of("wall-clock-timeout@cell=1,attempts=0,sleep_ms=30")});
  SweepOptions opt;
  opt.workers = 1;
  opt.retry.deadline_ms = 5;
  opt.retry.quarantine = true;
  SweepDriver driver(opt);
  const auto result = driver.run_cells<int>(2, run_work_cell);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::kQuarantined);
  EXPECT_EQ(result.outcomes[1].category, FaultCategory::kWallClockTimeout);
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kOk);
}

TEST(FaultMatrix, ArenaFaultSurfacesAsAllocationLimit) {
  ArmedScope armed({spec_of("allocation-limit@cell=0,attempts=0")});
  SweepOptions opt;
  opt.workers = 1;
  opt.retry.quarantine = true;
  SweepDriver driver(opt);
  const auto result = driver.run_cells<int>(2, [](std::size_t i,
                                                  CellContext& ctx) {
    // An allocation big enough to force arena growth, so the alloc probe
    // runs (overflow blocks are not reused until reset, so this grows
    // even if earlier tests warmed the thread's arena).
    ScratchArena::Frame frame;
    (void)frame.alloc<std::uint64_t>(1 << 20);
    return run_work_cell(i, ctx);
  });
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kQuarantined);
  EXPECT_EQ(result.outcomes[0].category, FaultCategory::kAllocationLimit);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::kOk);
}

TEST(FaultMatrix, ArenaByteBudgetLimitIsStructured) {
  // No injector at all: the RetryPolicy's real arena byte budget must
  // produce the same structured category.
  SweepOptions opt;
  opt.workers = 1;
  opt.retry.arena_limit_bytes = 1024;
  opt.retry.quarantine = true;
  SweepDriver driver(opt);
  const auto result =
      driver.run_cells<int>(2, [](std::size_t i, CellContext& ctx) {
        if (i == 0) {
          ScratchArena::Frame frame;
          (void)frame.alloc<std::uint64_t>(1 << 22);
        }
        return run_work_cell(i, ctx);
      });
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kQuarantined);
  EXPECT_EQ(result.outcomes[0].category, FaultCategory::kAllocationLimit);
  EXPECT_NE(result.outcomes[0].error.find("byte budget"), std::string::npos);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::kOk)
      << "the limit is per-attempt and must be lifted after the cell";
}

TEST(FaultMatrix, CorruptedColoringIsCaughtByThePhaseOracle) {
  // Corrupt the partial coloring at the det pipeline's "easy" oracle site;
  // --validate=phase must turn it into a structured invariant violation.
  ArmedScope armed(
      {spec_of("invariant-violation@cell=0,attempts=0,phase=easy")});
  const CliqueInstance inst = clique_blowup_instance(
      {.num_cliques = 8, .delta = 8, .clique_size = 8, .seed = 11});
  SweepOptions opt;
  opt.workers = 1;
  opt.retry.quarantine = true;
  SweepDriver driver(opt);
  const auto result = driver.run_cells<int>(
      2, [&](std::size_t /*i*/, CellContext& ctx) {
        AlgorithmRequest req;
        req.seed = 7;
        req.engine = ctx.engine();
        req.validate = ValidateMode::kPhase;
        const AlgorithmResult res = run_registered("det", inst.graph, req);
        return res.ok ? 1 : 0;
      });
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kQuarantined);
  EXPECT_EQ(result.outcomes[0].category,
            FaultCategory::kInvariantViolation);
  EXPECT_NE(result.outcomes[0].error.find("monochromatic"),
            std::string::npos);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::kOk)
      << "the same pipeline, uncorrupted, passes the phase oracle";
  EXPECT_EQ(result.rows[1], 1);
}

TEST(FaultMatrix, ConcurrentFailuresKeepEveryOtherRow) {
  ArmedScope armed({spec_of("engine-exception@cell=3,attempts=0"),
                    spec_of("engine-exception@cell=11,attempts=0")});
  SweepOptions opt;
  opt.workers = 4;
  opt.retry.max_attempts = 2;
  opt.retry.quarantine = true;
  SweepDriver driver(opt);
  const auto result = driver.run_cells<int>(16, run_work_cell);
  EXPECT_EQ(result.quarantined(), 2u);
  for (std::size_t i = 0; i < 16; ++i) {
    if (i == 3 || i == 11) {
      EXPECT_EQ(result.outcomes[i].status, CellStatus::kQuarantined) << i;
    } else {
      EXPECT_EQ(result.outcomes[i].status, CellStatus::kOk) << i;
      EXPECT_EQ(result.rows[i], static_cast<int>(i * i)) << i;
    }
  }
}

TEST(FaultMatrix, SerialAndParallelAgreeUnderInjectedFaults) {
  const std::vector<FaultSpec> plan = {
      spec_of("engine-exception@cell=2"),  // transient: retried
      spec_of("engine-exception@cell=5,attempts=0"),  // hard: quarantined
  };
  struct Run {
    SweepResult<int> result;
    std::int64_t work_rounds = 0;
    std::int64_t retry_rounds = 0;
  };
  const auto sweep = [&](int workers) {
    ArmedScope armed(plan, 99);
    SweepOptions opt;
    opt.workers = workers;
    opt.retry.max_attempts = 3;
    opt.retry.quarantine = true;
    SweepDriver driver(opt);
    Run run;
    run.result = driver.run_cells<int>(12, run_work_cell);
    run.work_rounds = driver.ledger().phase_total("work");
    run.retry_rounds = driver.ledger().phase_total("retry");
    return run;
  };
  const Run serial = sweep(1);
  const Run parallel = sweep(4);
  ASSERT_EQ(serial.result.rows.size(), parallel.result.rows.size());
  for (std::size_t i = 0; i < serial.result.rows.size(); ++i) {
    EXPECT_EQ(serial.result.rows[i], parallel.result.rows[i]) << i;
    EXPECT_EQ(serial.result.outcomes[i].status,
              parallel.result.outcomes[i].status)
        << i;
    EXPECT_EQ(serial.result.outcomes[i].attempts,
              parallel.result.outcomes[i].attempts)
        << i;
  }
  // Round counts (not wall-clock) must match exactly across schedules.
  EXPECT_EQ(serial.work_rounds, parallel.work_rounds);
  EXPECT_EQ(serial.retry_rounds, parallel.retry_rounds);
  EXPECT_EQ(serial.result.quarantined(), 1u);
}

TEST(FaultMatrix, LegacyRethrowStillPropagatesLowestIndex) {
  // Default policy + faults on two cells: the legacy all-or-nothing
  // contract applies, and the lowest cell index's error wins.
  // Distinct probe sites so the messages identify which cell's error won:
  // cell 1 throws at cell start, cell 4 at its "work" phase charge.
  ArmedScope armed({spec_of("engine-exception@cell=1,attempts=0"),
                    spec_of("engine-exception@cell=4,phase=work,attempts=0")});
  SweepOptions opt;
  opt.workers = 4;
  SweepDriver driver(opt);
  try {
    (void)driver.run<int>(8, run_work_cell);
    FAIL() << "expected the injected exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cell start"), std::string::npos)
        << "lowest cell index's exception must win, got: " << e.what();
  }
}

TEST(FaultMatrix, PhaseFaultsFireAtEveryChargeSite) {
  // Every label a registry algorithm books goes through
  // LocalContext::charge, the one phase-fault probe: arming
  // engine-exception@phase=<label> must throw, naming that label.
  for (const double easy : {0.0, 0.25}) {
    const CliqueInstance inst = clique_blowup_instance(
        {.num_cliques = 64, .delta = 16, .clique_size = 16,
         .easy_fraction = easy, .seed = 1});
    for (const AlgorithmEntry& entry : algorithm_registry()) {
      AlgorithmRequest req;
      req.seed = 7;
      req.engine.num_threads = 1;
      const AlgorithmResult clean =
          run_registered(entry.name, inst.graph, req);
      ASSERT_TRUE(clean.ok) << entry.name;
      for (const auto& [label, rounds] : clean.ledger.phases()) {
        ArmedScope armed({spec_of("engine-exception@phase=" + label)});
        try {
          (void)run_registered(entry.name, inst.graph, req);
          ADD_FAILURE() << entry.name << " (easy " << easy << "): '"
                        << label << "' was charged past the probe";
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("(phase " + label + ")"),
                    std::string::npos)
              << entry.name << ": " << e.what();
        }
      }
    }
  }
}

TEST(LocalContext, PhaseStackAndLabeledCharge) {
  const Graph g = cycle_graph(12);
  // A bare call books every nested round (schedule, Linial, KW) under the
  // entry point's default label.
  RoundLedger bare;
  LocalContext bare_ctx(bare);
  mis_deterministic(g, bare_ctx);
  ASSERT_EQ(bare.phases().size(), 1u);
  EXPECT_EQ(bare.phases()[0].first, "mis");
  EXPECT_GT(bare.total(), 0);
  // Under the caller's ScopedPhase the same call books only that label.
  RoundLedger scoped;
  LocalContext scoped_ctx(scoped);
  {
    ScopedPhase phase(scoped_ctx, "caller");
    mis_deterministic(g, scoped_ctx);
  }
  ASSERT_EQ(scoped.phases().size(), 1u);
  EXPECT_EQ(scoped.phases()[0].first, "caller");
  EXPECT_EQ(scoped.total(), bare.total());
  EXPECT_FALSE(scoped_ctx.has_phase());
  // charge(label, ...) needs no open phase, books rounds * dilation to
  // that label, and is a probe site for that label.
  scoped_ctx.charge("named", 3, 2);
  EXPECT_EQ(scoped.phase_total("named"), 6);
  ArmedScope armed({spec_of("engine-exception@phase=named")});
  scoped_ctx.charge("other", 1);  // another label passes the probe
  try {
    scoped_ctx.charge("named", 1);
    ADD_FAILURE() << "charge(\"named\", ...) passed an armed probe";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("(phase named)"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(scoped.phase_total("named"), 6) << "a fired probe books nothing";
}

TEST(FaultMatrix, DisarmedInjectorChargesNothing) {
  FaultInjector::global().disarm();
  EXPECT_FALSE(FaultInjector::armed());
  SweepDriver driver;
  const auto rows = driver.run<int>(4, run_work_cell);
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(rows[i], static_cast<int>(i * i));
  EXPECT_EQ(driver.ledger().phase_total("retry"), 0);
}

}  // namespace
}  // namespace deltacolor::bench
