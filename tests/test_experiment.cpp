#include <gtest/gtest.h>

#include <memory>

#include "exp/table1.hpp"
#include "topo/generators.hpp"

namespace netsel::exp {
namespace {

TEST(Experiment, AppCasesMatchPaperShapes) {
  EXPECT_EQ(fft_case().num_nodes(), 4);
  EXPECT_EQ(airshed_case().num_nodes(), 5);
  EXPECT_EQ(mri_case().num_nodes(), 4);
  EXPECT_EQ(fft_case().name, "FFT (1K)");
}

TEST(Experiment, PolicyNames) {
  EXPECT_STREQ(policy_name(Policy::Random), "random");
  EXPECT_STREQ(policy_name(Policy::AutoBalanced), "auto-balanced");
  EXPECT_STREQ(policy_name(Policy::Static), "static");
}

TEST(Experiment, UnloadedReferencesNearPaper) {
  Scenario idle = table1_scenario(false, false);
  EXPECT_NEAR(run_trial(fft_case(), idle, Policy::AutoBalanced, 1).elapsed,
              48.0, 3.0);
  EXPECT_NEAR(run_trial(airshed_case(), idle, Policy::AutoBalanced, 1).elapsed,
              150.0, 8.0);
  EXPECT_NEAR(run_trial(mri_case(), idle, Policy::AutoBalanced, 1).elapsed,
              540.0, 25.0);
}

TEST(Experiment, TrialsAreDeterministicPerSeed) {
  Scenario s = table1_scenario(true, true);
  auto a = run_trial(fft_case(), s, Policy::Random, 42);
  auto b = run_trial(fft_case(), s, Policy::Random, 42);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.nodes, b.nodes);
  auto c = run_trial(fft_case(), s, Policy::Random, 43);
  EXPECT_NE(a.elapsed, c.elapsed);
}

TEST(Experiment, LoadAndTrafficBothHurt) {
  auto idle = run_trial(fft_case(), table1_scenario(false, false),
                        Policy::Random, 11)
                  .elapsed;
  auto load = run_cell(fft_case(), table1_scenario(true, false),
                       Policy::Random, 5, 11);
  auto traffic = run_cell(fft_case(), table1_scenario(false, true),
                          Policy::Random, 5, 11);
  EXPECT_GT(load.mean(), idle * 1.2);
  EXPECT_GT(traffic.mean(), idle * 1.05);
}

TEST(Experiment, AutoBeatsRandomUnderLoad) {
  // The paper's central claim, in miniature: across a handful of seeds,
  // automatic selection beats random selection under processor load.
  Scenario s = table1_scenario(true, false);
  auto rnd = run_cell(fft_case(), s, Policy::Random, 8, 1000);
  auto aut = run_cell(fft_case(), s, Policy::AutoBalanced, 8, 1000);
  EXPECT_LT(aut.mean(), rnd.mean());
}

TEST(Experiment, AutoBeatsRandomUnderTraffic) {
  Scenario s = table1_scenario(false, true);
  auto rnd = run_cell(airshed_case(), s, Policy::Random, 8, 2000);
  auto aut = run_cell(airshed_case(), s, Policy::AutoBalanced, 8, 2000);
  EXPECT_LT(aut.mean(), rnd.mean());
}

TEST(Experiment, StaticNearRandomOnThisTestbed) {
  // Paper §4.3: "random node selection and node selection based on static
  // network properties give virtually identical performance on a small
  // testbed with all high speed links like ours."
  Scenario s = table1_scenario(true, false);
  auto rnd = run_cell(fft_case(), s, Policy::Random, 10, 3000);
  auto sta = run_cell(fft_case(), s, Policy::Static, 10, 3000);
  // Same ballpark: within 40% of each other (both far from auto's gain
  // would be too strict to assert on small samples).
  EXPECT_LT(std::abs(sta.mean() - rnd.mean()),
            0.4 * std::max(sta.mean(), rnd.mean()));
}

TEST(Experiment, SelectedNodesRecorded) {
  Scenario s = table1_scenario(false, false);
  auto r = run_trial(fft_case(), s, Policy::AutoBalanced, 1);
  EXPECT_EQ(r.nodes.size(), 4u);
}

TEST(Experiment, CellStatisticsAccumulate) {
  Scenario s = table1_scenario(false, false);
  auto stats = run_cell(fft_case(), s, Policy::AutoBalanced, 3, 50);
  EXPECT_EQ(stats.count(), 3u);
  EXPECT_GT(stats.mean(), 0.0);
}

TEST(Experiment, AllPoliciesProduceValidTrials) {
  Scenario s = table1_scenario(true, true);
  for (Policy p : {Policy::Random, Policy::Static, Policy::AutoBalanced,
                   Policy::AutoCompute, Policy::AutoBandwidth}) {
    auto r = run_trial(fft_case(), s, p, 9);
    EXPECT_EQ(r.nodes.size(), 4u) << policy_name(p);
    EXPECT_GT(r.elapsed, 40.0) << policy_name(p);
  }
}

TEST(Experiment, MaxSimTimeGuardFires) {
  Scenario s = table1_scenario(false, false);
  s.max_sim_time = s.warmup + 1.0;  // impossible deadline for a 48 s app
  EXPECT_THROW(run_trial(fft_case(), s, Policy::AutoBalanced, 1),
               std::runtime_error);
}

TEST(Experiment, ForecasterOptionIsHonoured) {
  // A custom forecaster that counts queries proves the scenario plumbs it
  // through to the selection-time snapshot.
  struct Counting final : remos::Forecaster {
    mutable int calls = 0;
    double estimate(const remos::TimeSeries& ts, double fallback) const override {
      ++calls;
      return remos::LastValue().estimate(ts, fallback);
    }
    std::string name() const override { return "counting"; }
  };
  auto counting = std::make_shared<Counting>();
  Scenario s = table1_scenario(false, false);
  s.forecaster = counting;
  auto r = run_trial(fft_case(), s, Policy::AutoBalanced, 3);
  EXPECT_GT(counting->calls, 0);
  EXPECT_GT(r.elapsed, 40.0);
}

TEST(Experiment, WarmupAffectsWhatSelectionSees) {
  // With zero warmup the monitor has only the initial idle sweep, so auto
  // selection cannot distinguish nodes and behaves like static selection.
  Scenario s = table1_scenario(true, false);
  s.warmup = 0.0;
  auto blind = run_trial(fft_case(), s, Policy::AutoBalanced, 21);
  auto sighted_s = table1_scenario(true, false);
  auto sighted = run_trial(fft_case(), sighted_s, Policy::AutoBalanced, 21);
  // Both valid runs; the blind one picked the first-by-id tie-break set.
  EXPECT_EQ(blind.nodes.size(), 4u);
  EXPECT_EQ(sighted.nodes.size(), 4u);
  topo::TopologyGraph g = topo::testbed();
  EXPECT_EQ(g.node_name(blind.nodes[0]), "m-1")
      << "no history -> all cpus look equal -> lowest ids win";
}

TEST(Table1, PaperConstantsSanity) {
  ASSERT_EQ(kPaperTable1.size(), 3u);
  EXPECT_DOUBLE_EQ(kPaperTable1[0].reference, 48.0);
  EXPECT_DOUBLE_EQ(kPaperTable1[1].random_sel[kLoadAndTraffic], 530.2);
  EXPECT_DOUBLE_EQ(kPaperTable1[2].auto_sel[kLoadOnly], 594.0);
}

TEST(Table1, MiniPipelineProducesFormattedTables) {
  Table1Options opt;
  opt.trials = 2;
  opt.seed = 7;
  auto rows = run_table1(opt);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    EXPECT_GT(row.reference, 0.0);
    for (int c = 0; c < 3; ++c) {
      EXPECT_GT(row.random_sel[static_cast<std::size_t>(c)].mean, 0.0);
      EXPECT_EQ(row.random_sel[static_cast<std::size_t>(c)].trials, 2);
    }
  }
  auto table = format_table1(rows);
  EXPECT_NE(table.find("FFT (1K)"), std::string::npos);
  EXPECT_NE(table.find("random (paper)"), std::string::npos);
  auto summary = format_slowdown_summary(rows);
  EXPECT_NE(summary.find("reduction"), std::string::npos);
}

}  // namespace
}  // namespace netsel::exp
