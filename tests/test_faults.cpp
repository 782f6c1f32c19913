#include "remos/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "api/service.hpp"
#include "exp/faults.hpp"
#include "remos/remos.hpp"
#include "topo/generators.hpp"

namespace netsel::remos {
namespace {

TEST(FaultPlan_, DefaultIsFaultFree) {
  FaultPlan p;
  EXPECT_FALSE(p.any());
  EXPECT_NO_THROW(p.validate());
}

TEST(FaultPlan_, AnyFlipsPerProcess) {
  FaultPlan p;
  p.p_sweep_drop = 0.1;
  EXPECT_TRUE(p.any());
  p = FaultPlan{};
  p.p_node_fail = 0.1;
  EXPECT_TRUE(p.any());
  p = FaultPlan{};
  p.p_link_fail = 0.1;
  EXPECT_TRUE(p.any());
  p = FaultPlan{};
  p.noise_sigma = 0.1;
  EXPECT_TRUE(p.any());
  p = FaultPlan{};
  p.p_sweep_delay = 0.1;
  p.max_sweep_delay = 1.0;
  EXPECT_TRUE(p.any());
}

TEST(FaultPlan_, ValidateRejectsBadKnobs) {
  FaultPlan p;
  p.p_sweep_drop = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = FaultPlan{};
  p.noise_sigma = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // A delay process needs a positive delay bound.
  p = FaultPlan{};
  p.p_sweep_delay = 0.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // An outage process with no repair would down sensors forever.
  p = FaultPlan{};
  p.p_node_fail = 0.5;
  p.p_node_repair = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = FaultPlan{};
  p.p_link_fail = 0.5;
  p.p_link_repair = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // Every knob rejects NaN and infinity, even where the range check alone
  // would let the value through.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double FaultPlan::*knob :
       {&FaultPlan::p_sweep_drop, &FaultPlan::p_sweep_delay,
        &FaultPlan::p_node_fail, &FaultPlan::p_node_repair,
        &FaultPlan::p_link_fail, &FaultPlan::p_link_repair}) {
    p = FaultPlan{};
    p.*knob = kNaN;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  for (double bad : {kNaN, kInf}) {
    p = FaultPlan{};
    p.p_sweep_drop = 0.1;
    p.noise_sigma = bad;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = FaultPlan{};
    p.p_sweep_delay = 0.5;
    p.max_sweep_delay = bad;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
}

TEST(FaultPlan_, ScaledSeverity) {
  EXPECT_FALSE(FaultPlan::scaled(0.0, 1).any());
  FaultPlan half = FaultPlan::scaled(0.5, 1);
  FaultPlan full = FaultPlan::scaled(1.0, 1);
  EXPECT_TRUE(half.any());
  EXPECT_NO_THROW(half.validate());
  EXPECT_NO_THROW(full.validate());
  EXPECT_LT(half.p_sweep_drop, full.p_sweep_drop);
  EXPECT_LT(half.p_node_fail, full.p_node_fail);
  EXPECT_LT(half.noise_sigma, full.noise_sigma);
  EXPECT_THROW(FaultPlan::scaled(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(FaultPlan::scaled(1.1, 1), std::invalid_argument);
  // A NaN severity is not a silently fault-free run.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FaultPlan::scaled(kNaN, 1), std::invalid_argument);
  EXPECT_THROW(FaultPlan::scaled(kInf, 1), std::invalid_argument);
  EXPECT_THROW(FaultPlan::scaled(0.5, 1, kInf), std::invalid_argument);
  EXPECT_THROW(FaultPlan::scaled(0.5, 1, kNaN), std::invalid_argument);
}

TEST(FaultInjectorTest, DeterministicReplay) {
  FaultPlan p = FaultPlan::scaled(0.7, 42);
  FaultInjector a(p, 8, 20);
  FaultInjector b(p, 8, 20);
  for (int s = 0; s < 50; ++s) {
    a.begin_sweep();
    b.begin_sweep();
    EXPECT_EQ(a.sweep_dropped(), b.sweep_dropped()) << "sweep " << s;
    for (std::size_t n = 0; n < 8; ++n)
      EXPECT_EQ(a.node_down(n), b.node_down(n)) << "sweep " << s;
    for (std::size_t l = 0; l < 20; ++l)
      EXPECT_EQ(a.link_down(l), b.link_down(l)) << "sweep " << s;
    EXPECT_DOUBLE_EQ(a.perturb(3.5), b.perturb(3.5));
    EXPECT_DOUBLE_EQ(a.draw_delay(), b.draw_delay());
  }
  EXPECT_EQ(a.sweeps_begun(), 50u);
}

TEST(FaultInjectorTest, CertainOutageAlternates) {
  // p_fail = p_repair = 1 makes the two-state chain deterministic: the
  // first advance downs every sensor, the second repairs it, and so on.
  FaultPlan p;
  p.p_node_fail = 1.0;
  p.p_node_repair = 1.0;
  FaultInjector inj(p, 3, 4);
  inj.begin_sweep();
  EXPECT_TRUE(inj.node_down(0));
  EXPECT_TRUE(inj.node_down(2));
  EXPECT_FALSE(inj.link_down(0));  // link process inactive
  inj.begin_sweep();
  EXPECT_FALSE(inj.node_down(0));
  inj.begin_sweep();
  EXPECT_TRUE(inj.node_down(0));
}

TEST(FaultInjectorTest, PerturbIsIdentityWithoutNoise) {
  FaultPlan p;
  p.p_sweep_drop = 0.5;  // any() true, but no noise process
  FaultInjector inj(p, 1, 1);
  EXPECT_DOUBLE_EQ(inj.perturb(7.25), 7.25);
  EXPECT_DOUBLE_EQ(inj.draw_delay(), 0.0);
}

struct FaultMonitorFixture : ::testing::Test {
  sim::NetworkSim net{topo::testbed()};
  topo::NodeId m1 = net.topology().find_node("m-1").value();
  topo::NodeId m13 = net.topology().find_node("m-13").value();
};

TEST_F(FaultMonitorFixture, NoFaultPlanBuildsNoInjector) {
  Remos remos(net, MonitorConfig{2.0, 30.0, {}});
  EXPECT_EQ(remos.monitor().fault_injector(), nullptr);
  FaultPlan p;
  p.noise_sigma = 0.1;
  Remos faulty(net, MonitorConfig{2.0, 30.0, p});
  EXPECT_NE(faulty.monitor().fault_injector(), nullptr);
}

TEST_F(FaultMonitorFixture, InvalidPlanRejectedAtConstruction) {
  FaultPlan p;
  p.p_sweep_drop = 2.0;
  EXPECT_THROW(Monitor(net, MonitorConfig{2.0, 30.0, p}),
               std::invalid_argument);
}

TEST_F(FaultMonitorFixture, DroppedSweepsRecordNothing) {
  FaultPlan p;
  p.seed = 9;
  p.p_sweep_drop = 1.0;
  Remos remos(net, MonitorConfig{2.0, 30.0, p});
  remos.start();
  net.sim().run_until(10.0);
  EXPECT_EQ(remos.monitor().polls_completed(), 0u);
  EXPECT_EQ(remos.monitor().sweeps_dropped(), 6u);  // t = 0, 2, ..., 10
  EXPECT_TRUE(remos.monitor().load_history(m1).empty());
}

TEST_F(FaultMonitorFixture, NodeOutageStallsItsSeriesOnly) {
  // Deterministic alternating outage: node sensors record on every second
  // sweep, link sensors on all of them.
  FaultPlan p;
  p.seed = 9;
  p.p_node_fail = 1.0;
  p.p_node_repair = 1.0;
  Remos remos(net, MonitorConfig{2.0, 30.0, p});
  remos.start();
  net.sim().run_until(10.0);
  const Monitor& mon = remos.monitor();
  EXPECT_EQ(mon.polls_completed(), 6u);
  // Down at t=0,4,8; up at t=2,6,10.
  EXPECT_EQ(mon.load_history(m1).size(), 3u);
  EXPECT_EQ(mon.link_history(0, true).size(), 6u);
  EXPECT_GT(mon.samples_dropped(), 0u);
}

TEST_F(FaultMonitorFixture, NoiseKeepsExactZerosAndPerturbsTraffic) {
  FaultPlan p;
  p.seed = 11;
  p.noise_sigma = 0.3;
  net.network().start_flow(m1, m13, 1e12, sim::kBackgroundOwner);
  Remos remos(net, MonitorConfig{2.0, 30.0, p});
  remos.start();
  net.sim().run_until(4.0);
  const Monitor& mon = remos.monitor();
  // Idle sensors stay exactly zero (lognormal noise is multiplicative).
  EXPECT_DOUBLE_EQ(mon.load_history(m1).latest().value, 0.0);
  // The loaded route direction measures ~100 Mbps but never exactly.
  const topo::Hop h = net.routes().route(m1, m13)[0];
  const double used = mon.link_history(h.link, h.forward).latest().value;
  EXPECT_GT(used, 0.0);
  EXPECT_NE(used, 100e6);
}

TEST_F(FaultMonitorFixture, DelayedSweepsStretchTheCadence) {
  FaultPlan p;
  p.seed = 13;
  p.p_sweep_delay = 1.0;
  p.max_sweep_delay = 4.0;
  Remos remos(net, MonitorConfig{2.0, 30.0, p});
  remos.start();
  net.sim().run_until(20.0);
  // Every gap is in (2, 6]: strictly fewer polls than the 11 an on-time
  // poller completes by t=20, but the poller never stalls outright.
  EXPECT_LT(remos.monitor().polls_completed(), 11u);
  EXPECT_GE(remos.monitor().polls_completed(), 4u);
}

}  // namespace
}  // namespace netsel::remos

namespace netsel::api {
namespace {

struct LadderFixture : ::testing::Test {
  sim::NetworkSim net{topo::testbed()};
  remos::Remos remos{net};
  NodeSelectionService service{remos};
};

TEST_F(LadderFixture, FullWhenMeasurementsAreFresh) {
  remos.start();
  net.sim().run_until(10.0);
  DegradationLevel level = DegradationLevel::Prior;
  remos::QueryQuality quality;
  auto snap = service.degraded_snapshot({}, {}, level, quality);
  EXPECT_EQ(level, DegradationLevel::Full);
  EXPECT_DOUBLE_EQ(quality.coverage(), 1.0);
  // Full is the probe snapshot itself: bit-identical to a plain query on
  // every sensor. exp::run_trial's auto policies rest on this.
  auto direct = remos.snapshot();
  const auto& g = net.topology();
  for (topo::NodeId n : g.compute_nodes()) {
    EXPECT_EQ(snap.cpu(n), direct.cpu(n)) << g.node_name(n);
    EXPECT_EQ(snap.free_memory(n), direct.free_memory(n)) << g.node_name(n);
  }
  for (std::size_t i = 0; i < g.link_count(); ++i) {
    const auto l = static_cast<topo::LinkId>(i);
    EXPECT_EQ(snap.bw_dir(l, true), direct.bw_dir(l, true)) << g.link_name(l);
    EXPECT_EQ(snap.bw_dir(l, false), direct.bw_dir(l, false)) << g.link_name(l);
  }
}

TEST_F(LadderFixture, PriorWhenMonitorNeverPolled) {
  // No remos.start(): every series is empty, coverage is 0, and selection
  // must still succeed on the capacity/zero-load prior.
  DegradationLevel level = DegradationLevel::Full;
  remos::QueryQuality quality;
  auto snap = service.degraded_snapshot({}, {}, level, quality);
  EXPECT_EQ(level, DegradationLevel::Prior);
  EXPECT_DOUBLE_EQ(quality.coverage(), 0.0);
  auto m1 = net.topology().find_node("m-1").value();
  EXPECT_DOUBLE_EQ(snap.cpu(m1), 1.0);
  EXPECT_DOUBLE_EQ(snap.bw(0), snap.maxbw(0));

  AppSpec spec = AppSpec::spmd("t", 4, AppPattern::LooselySynchronous);
  Placement placement = service.place(spec);
  EXPECT_TRUE(placement.feasible);
  EXPECT_EQ(placement.degradation, DegradationLevel::Prior);
  EXPECT_DOUBLE_EQ(placement.measurement_coverage, 0.0);
  EXPECT_EQ(placement.flat().size(), 4u);
}

TEST_F(LadderFixture, StoppedMonitorAgesIntoPrior) {
  remos.start();
  net.sim().run_until(10.0);
  remos.monitor().stop();
  net.sim().run_until(60.0);  // newest sample now 50 s old, window is 30 s
  DegradationLevel level = DegradationLevel::Full;
  remos::QueryQuality quality;
  service.degraded_snapshot({}, {}, level, quality);
  EXPECT_EQ(level, DegradationLevel::Prior);
  EXPECT_DOUBLE_EQ(quality.coverage(), 0.0);
  EXPECT_GT(quality.newest_age, 30.0);
}

TEST_F(LadderFixture, ThresholdsForceEachLevel) {
  remos.start();
  net.sim().run_until(10.0);
  remos::QueryQuality quality;
  DegradationLevel level;

  DegradationPolicy smoothed;
  smoothed.smoothed_below = 1.1;  // coverage <= 1 always degrades
  smoothed.prior_below = 0.5;
  service.degraded_snapshot({}, smoothed, level, quality);
  EXPECT_EQ(level, DegradationLevel::Smoothed);

  DegradationPolicy prior;
  prior.smoothed_below = 1.2;
  prior.prior_below = 1.1;
  service.degraded_snapshot({}, prior, level, quality);
  EXPECT_EQ(level, DegradationLevel::Prior);
}

TEST_F(LadderFixture, RejectsInvertedThresholds) {
  DegradationPolicy bad;
  bad.smoothed_below = 0.3;
  bad.prior_below = 0.8;
  DegradationLevel level;
  remos::QueryQuality quality;
  EXPECT_THROW(service.degraded_snapshot({}, bad, level, quality),
               std::invalid_argument);
}

TEST_F(LadderFixture, RejectsNaNThresholds) {
  DegradationLevel level;
  remos::QueryQuality quality;
  DegradationPolicy nan_smoothed;
  nan_smoothed.smoothed_below = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(service.degraded_snapshot({}, nan_smoothed, level, quality),
               std::invalid_argument);
  DegradationPolicy nan_prior;
  nan_prior.prior_below = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(service.degraded_snapshot({}, nan_prior, level, quality),
               std::invalid_argument);
}

TEST_F(LadderFixture, PlaceRecordsForcedDegradation) {
  remos.start();
  net.sim().run_until(10.0);
  ServiceOptions opt;
  opt.degradation.smoothed_below = 1.1;
  Placement placement =
      service.place(AppSpec::spmd("t", 4, AppPattern::LooselySynchronous), opt);
  EXPECT_TRUE(placement.feasible);
  EXPECT_EQ(placement.degradation, DegradationLevel::Smoothed);
  EXPECT_DOUBLE_EQ(placement.measurement_coverage, 1.0);
}

TEST_F(LadderFixture, SelectAnnotatesDegradedResults) {
  // Dead monitor: select() falls back to the prior and says so in the note.
  auto result = service.select(4, select::Criterion::Balanced);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.nodes.size(), 4u);
  EXPECT_NE(result.note.find("degraded: prior"), std::string::npos);

  // Warm monitor: no annotation on the Full path.
  remos.start();
  net.sim().run_until(10.0);
  auto fresh = service.select(4, select::Criterion::Balanced);
  EXPECT_EQ(fresh.note.find("degraded"), std::string::npos);
}

TEST_F(LadderFixture, SelectionNeverThrowsUnderHeavyFaults) {
  // A separate testbed with a severity-1 measurement plane: the service
  // must place every request without throwing, whatever the sensors did.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    sim::NetworkSim fnet{topo::testbed()};
    remos::MonitorConfig cfg;
    cfg.faults = remos::FaultPlan::scaled(1.0, seed, cfg.poll_interval);
    remos::Remos fremos(fnet, cfg);
    fremos.start();
    fnet.sim().run_until(40.0);
    NodeSelectionService fservice(fremos);
    Placement placement = fservice.place(
        AppSpec::spmd("t", 4, AppPattern::LooselySynchronous));
    EXPECT_TRUE(placement.feasible) << "seed " << seed;
    EXPECT_EQ(placement.flat().size(), 4u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace netsel::api

namespace netsel::exp {
namespace {

TEST(FaultGrid, SeverityZeroTrialsRecordFull) {
  // At severity 0 every sensor is fresh: the control arm reads no
  // measurements and the auto policy selects on the Full rung.
  const AppCase app = fft_case();
  const Scenario sc = table1_scenario(true, true);
  for (Policy policy : {Policy::Random, Policy::AutoBalanced}) {
    for (int t = 0; t < 2; ++t) {
      TrialResult r = run_trial(
          app, sc, policy, trial_seed(cell_seed(501, app.name, policy, 0), t));
      EXPECT_EQ(r.degradation, api::DegradationLevel::Full)
          << policy_name(policy) << " trial " << t;
      EXPECT_EQ(r.coverage, 1.0) << policy_name(policy) << " trial " << t;
    }
  }
}

TEST(FaultGrid, PooledGridMatchesSerial) {
  FaultGridOptions opt;
  opt.trials = 2;
  opt.seed = 77;
  opt.severities = {0.0, 0.4};
  opt.criteria = {Policy::AutoBalanced};

  opt.threads = 0;
  auto serial = run_fault_grid(opt);
  opt.threads = 2;
  auto pooled = run_fault_grid(opt);

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    EXPECT_DOUBLE_EQ(serial[r].severity, pooled[r].severity);
    auto same = [&](const CellResult& a, const CellResult& b) {
      EXPECT_EQ(a.count(), b.count());
      EXPECT_EQ(a.failures, b.failures);
      EXPECT_EQ(a.stats.mean(), b.stats.mean());
      EXPECT_EQ(a.degraded_smoothed, b.degraded_smoothed);
      EXPECT_EQ(a.degraded_prior, b.degraded_prior);
    };
    same(serial[r].random, pooled[r].random);
    ASSERT_EQ(serial[r].autos.size(), pooled[r].autos.size());
    for (std::size_t k = 0; k < serial[r].autos.size(); ++k)
      same(serial[r].autos[k], pooled[r].autos[k]);
  }
}

TEST(FaultGrid, FormattersCoverEveryCell) {
  FaultGridOptions opt;
  opt.trials = 1;
  opt.seed = 77;
  opt.severities = {0.0};
  opt.criteria = {Policy::AutoBalanced};
  auto rows = run_fault_grid(opt);
  std::string table = format_fault_grid(rows, opt);
  EXPECT_NE(table.find("random"), std::string::npos);
  EXPECT_NE(table.find("auto-balanced"), std::string::npos);
  std::string csv = fault_grid_csv(rows, opt);
  EXPECT_NE(csv.find("severity"), std::string::npos);
  EXPECT_NE(csv.find("auto-balanced"), std::string::npos);
}

}  // namespace
}  // namespace netsel::exp
