// Determinism and failure-isolation guarantees of the parallel experiment
// engine: run_cell/run_table1 must produce bit-identical statistics for any
// worker count (reduction is by trial index, not completion order), expected
// per-trial failures must degrade a cell instead of killing the grid, and
// concurrent cells must share no mutable state (this file is the target of
// the ThreadSanitizer CI job).

#include <gtest/gtest.h>

#include <thread>

#include "exp/table1.hpp"
#include "util/thread_pool.hpp"

namespace netsel::exp {
namespace {

void expect_same_stats(const util::OnlineStats& a, const util::OnlineStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());      // bitwise, not near
  EXPECT_EQ(a.stddev(), b.stddev());  // bitwise, not near
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(Seeding, HashedSeedsHaveNoAdjacentCellCollisions) {
  // The old scheme (seed0 + t) made cell seed s, trial t bit-equal to cell
  // seed s + 1, trial t - 1. The hashed derivation must not.
  for (int t = 1; t < 32; ++t) {
    EXPECT_NE(trial_seed(100, t), trial_seed(101, t - 1)) << t;
    EXPECT_NE(trial_seed(100, t), trial_seed(100, t - 1)) << t;
  }
  // Pure function of its inputs.
  EXPECT_EQ(trial_seed(42, 3), trial_seed(42, 3));
  // Any component of the cell identity changes the cell seed.
  auto base = cell_seed(1999, "FFT (1K)", Policy::Random, kLoadOnly);
  EXPECT_EQ(base, cell_seed(1999, "FFT (1K)", Policy::Random, kLoadOnly));
  EXPECT_NE(base, cell_seed(1999, "FFT (1K)", Policy::Random, kTrafficOnly));
  EXPECT_NE(base, cell_seed(1999, "FFT (1K)", Policy::AutoBalanced, kLoadOnly));
  EXPECT_NE(base, cell_seed(1999, "Airshed", Policy::Random, kLoadOnly));
  EXPECT_NE(base, cell_seed(2000, "FFT (1K)", Policy::Random, kLoadOnly));
}

TEST(ParallelExperiment, RunCellBitIdenticalAcrossThreadCounts) {
  Scenario s = table1_scenario(true, false);
  CellResult serial = run_cell(fft_case(), s, Policy::Random, 6, 77);
  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  CellResult p1 = run_cell(fft_case(), s, Policy::Random, 6, 77, &one);
  CellResult p8 = run_cell(fft_case(), s, Policy::Random, 6, 77, &eight);
  ASSERT_EQ(serial.stats.count(), 6u);
  expect_same_stats(serial.stats, p1.stats);
  expect_same_stats(serial.stats, p8.stats);
  EXPECT_EQ(serial.attempted, p8.attempted);
  EXPECT_EQ(serial.failures, p8.failures);
}

TEST(ParallelExperiment, Table1BitIdenticalAcrossThreadCounts) {
  Table1Options opt;
  opt.trials = 2;
  opt.seed = 7;
  auto serial = run_table1(opt);
  opt.threads = 3;
  auto pooled = run_table1(opt);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r].app, pooled[r].app);
    EXPECT_EQ(serial[r].reference, pooled[r].reference);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(serial[r].random_sel[c].mean, pooled[r].random_sel[c].mean);
      EXPECT_EQ(serial[r].random_sel[c].ci95, pooled[r].random_sel[c].ci95);
      EXPECT_EQ(serial[r].random_sel[c].trials, pooled[r].random_sel[c].trials);
      EXPECT_EQ(serial[r].random_sel[c].failures,
                pooled[r].random_sel[c].failures);
      EXPECT_EQ(serial[r].auto_sel[c].mean, pooled[r].auto_sel[c].mean);
      EXPECT_EQ(serial[r].auto_sel[c].ci95, pooled[r].auto_sel[c].ci95);
      EXPECT_EQ(serial[r].auto_sel[c].trials, pooled[r].auto_sel[c].trials);
      EXPECT_EQ(serial[r].auto_sel[c].failures, pooled[r].auto_sel[c].failures);
    }
  }
}

TEST(ParallelExperiment, FailedTrialDegradesCellInsteadOfThrowing) {
  Scenario s = table1_scenario(true, false);
  CellResult base = run_cell(fft_case(), s, Policy::Random, 6, 123);
  ASSERT_EQ(base.failures, 0);
  ASSERT_LT(base.stats.min(), base.stats.max());

  // Cap the simulation clock between the fastest and slowest trial: the
  // slow trials now abort, the fast ones survive, the cell degrades.
  Scenario capped = s;
  capped.max_sim_time =
      s.warmup + (base.stats.min() + base.stats.max()) / 2.0;
  CellResult cell = run_cell(fft_case(), capped, Policy::Random, 6, 123);
  EXPECT_GT(cell.failures, 0);
  EXPECT_GT(cell.stats.count(), 0u);
  EXPECT_EQ(cell.attempted, 6);
  EXPECT_EQ(static_cast<int>(cell.stats.count()) + cell.failures, 6);
  ASSERT_FALSE(cell.failure_notes.empty());
  EXPECT_NE(cell.failure_notes[0].find("max_sim_time"), std::string::npos);

  // Identical degradation under a pool — failures are part of the
  // deterministic result, not a scheduling artifact.
  util::ThreadPool pool(4);
  CellResult pooled = run_cell(fft_case(), capped, Policy::Random, 6, 123, &pool);
  EXPECT_EQ(pooled.failures, cell.failures);
  expect_same_stats(pooled.stats, cell.stats);
}

TEST(ParallelExperiment, ConcurrentCellsAreIsolated) {
  // Two whole cells on two plain threads, each against its own NetworkSim,
  // Rng and SelectionContext. Run under TSan in CI; also asserts the
  // concurrent results equal the single-threaded reference ones.
  Scenario load = table1_scenario(true, false);
  Scenario traffic = table1_scenario(false, true);
  CellResult ref_a = run_cell(fft_case(), load, Policy::AutoBalanced, 3, 7);
  CellResult ref_b = run_cell(fft_case(), traffic, Policy::Random, 3, 9);

  CellResult a, b;
  std::thread ta(
      [&] { a = run_cell(fft_case(), load, Policy::AutoBalanced, 3, 7); });
  std::thread tb(
      [&] { b = run_cell(fft_case(), traffic, Policy::Random, 3, 9); });
  ta.join();
  tb.join();
  expect_same_stats(a.stats, ref_a.stats);
  expect_same_stats(b.stats, ref_b.stats);
}

}  // namespace
}  // namespace netsel::exp
