#include "remos/remos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "load/traffic_generator.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "topo/generators.hpp"
#include "util/rng.hpp"

namespace netsel::remos {
namespace {

TEST(TimeSeriesTest, RecordsAndTrims) {
  TimeSeries ts(10.0);
  ts.record(0.0, 1.0);
  ts.record(5.0, 2.0);
  ts.record(12.0, 3.0);  // trims the t=0 sample (older than 12-10)
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.latest().value, 3.0);
}

TEST(TimeSeriesTest, RejectsOutOfOrder) {
  TimeSeries ts(10.0);
  ts.record(5.0, 1.0);
  EXPECT_THROW(ts.record(4.0, 2.0), std::invalid_argument);
  EXPECT_THROW(TimeSeries(0.0), std::invalid_argument);
}

TEST(TimeSeriesTest, LatestOnEmptyThrows) {
  TimeSeries ts(10.0);
  EXPECT_THROW(ts.latest(), std::logic_error);
}

TEST(TimeSeriesTest, AgeAndFreshness) {
  TimeSeries ts(10.0);
  EXPECT_TRUE(std::isinf(ts.age(5.0)));
  EXPECT_FALSE(ts.fresh(5.0, 100.0));
  ts.record(5.0, 1.0);
  EXPECT_DOUBLE_EQ(ts.age(7.0), 2.0);
  EXPECT_TRUE(ts.fresh(7.0, 2.0));
  EXPECT_FALSE(ts.fresh(7.0, 1.9));
}

TEST(Forecasters, EstimateBoundedFallsBackWhenStale) {
  // Regression: trim() only runs inside record(), so a sensor that goes
  // silent keeps serving its stalled samples to estimate() forever. The
  // bounded variant must answer the fallback instead once the newest
  // sample exceeds max_age.
  TimeSeries ts(10.0);
  for (double t = 0.0; t <= 4.0; t += 1.0) ts.record(t, 8.0);
  LastValue f;
  EXPECT_DOUBLE_EQ(f.estimate(ts, 0.25), 8.0);  // stalled but trusted
  EXPECT_DOUBLE_EQ(f.estimate_bounded(ts, 0.25, 20.0, 5.0), 0.25);
  // An infinite bound is exactly estimate().
  double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(f.estimate_bounded(ts, 0.25, 20.0, inf), 8.0);
}

TEST(Forecasters, EstimateBoundedDropsOutOfWindowSamples) {
  // Fresh series, but the oldest retained sample predates now - window
  // (no record() has trimmed it): the bounded estimate must ignore it.
  TimeSeries ts(10.0);
  ts.record(0.0, 100.0);
  ts.record(9.0, 2.0);
  WindowMean f;
  EXPECT_DOUBLE_EQ(f.estimate(ts, 0.0), 51.0);  // raw mean sees both
  EXPECT_DOUBLE_EQ(f.estimate_bounded(ts, 0.0, 12.0, 5.0), 2.0);
}

TEST(Forecasters, LastValue) {
  TimeSeries ts(100.0);
  LastValue f;
  EXPECT_DOUBLE_EQ(f.estimate(ts, 9.0), 9.0);  // fallback on empty
  ts.record(0.0, 1.0);
  ts.record(1.0, 5.0);
  EXPECT_DOUBLE_EQ(f.estimate(ts, 9.0), 5.0);
}

TEST(Forecasters, WindowMean) {
  TimeSeries ts(100.0);
  WindowMean f;
  EXPECT_DOUBLE_EQ(f.estimate(ts, 7.0), 7.0);
  ts.record(0.0, 2.0);
  ts.record(1.0, 4.0);
  ts.record(2.0, 9.0);
  EXPECT_DOUBLE_EQ(f.estimate(ts, 0.0), 5.0);
}

TEST(Forecasters, EwmaWeightsRecentSamples) {
  TimeSeries ts(100.0);
  Ewma f(0.5);
  ts.record(0.0, 0.0);
  ts.record(1.0, 0.0);
  ts.record(2.0, 8.0);
  // est = 0, then 0.5*0+0.5*0=0, then 0.5*8+0.5*0 = 4.
  EXPECT_DOUBLE_EQ(f.estimate(ts, 0.0), 4.0);
  EXPECT_THROW(Ewma(0.0), std::invalid_argument);
  EXPECT_THROW(Ewma(1.5), std::invalid_argument);
}

struct RemosFixture : ::testing::Test {
  sim::NetworkSim net{topo::testbed()};
  topo::NodeId m1 = net.topology().find_node("m-1").value();
  topo::NodeId m2 = net.topology().find_node("m-2").value();
  topo::NodeId m13 = net.topology().find_node("m-13").value();
};

TEST_F(RemosFixture, MonitorPollsOnSchedule) {
  Remos remos(net, MonitorConfig{2.0, 30.0, {}});
  remos.start();
  net.sim().run_until(10.0);
  // Polls at 0, 2, 4, 6, 8, 10.
  EXPECT_EQ(remos.monitor().polls_completed(), 6u);
  EXPECT_EQ(remos.monitor().load_history(m1).size(), 6u);
}

TEST_F(RemosFixture, MonitorStopHaltsPolling) {
  Remos remos(net, MonitorConfig{2.0, 30.0, {}});
  remos.start();
  net.sim().run_until(10.0);
  remos.monitor().stop();
  auto polls = remos.monitor().polls_completed();
  net.sim().run_until(50.0);
  EXPECT_EQ(remos.monitor().polls_completed(), polls);
}

TEST_F(RemosFixture, SnapshotSeesIdleNetwork) {
  Remos remos(net);
  remos.start();
  net.sim().run_until(10.0);
  auto snap = remos.snapshot();
  EXPECT_DOUBLE_EQ(snap.cpu(m1), 1.0);
  for (std::size_t l = 0; l < net.topology().link_count(); ++l) {
    auto id = static_cast<topo::LinkId>(l);
    EXPECT_DOUBLE_EQ(snap.bw(id), snap.maxbw(id));
    EXPECT_DOUBLE_EQ(snap.bwfactor(id), 1.0);
  }
}

TEST_F(RemosFixture, SnapshotSeesHostLoad) {
  net.host(m1).submit(1e9, sim::kBackgroundOwner);
  net.host(m1).submit(1e9, sim::kBackgroundOwner);
  Remos remos(net);
  net.sim().run_until(600.0);  // loadavg converges to 2
  remos.start();               // first poll immediately
  auto snap = remos.snapshot();
  EXPECT_NEAR(snap.cpu(m1), 1.0 / 3.0, 1e-3);  // cpu = 1/(1+2)
  EXPECT_DOUBLE_EQ(snap.cpu(m2), 1.0);
}

TEST_F(RemosFixture, SnapshotSeesLinkTraffic) {
  Remos remos(net);
  net.network().start_flow(m1, m13, 1e12, sim::kBackgroundOwner);
  remos.start();
  net.sim().run_until(4.0);
  auto snap = remos.snapshot();
  // Every link on the m-1 -> m-13 route has 100 Mbps used in the forward
  // direction; available = capacity - used (so the 155 Mbps ATM segment
  // still shows 55 Mbps available).
  auto links = net.routes().route(m1, m13);
  for (auto l : links) {
    EXPECT_LE(snap.bw(l), snap.maxbw(l) - 100e6 + 1e4)
        << "link " << net.topology().link_name(l);
  }
}

TEST_F(RemosFixture, MeasurementsAreStaleNotLive) {
  // A flow started between polls is invisible until the next sweep — Remos
  // reports measurements, not ground truth.
  Remos remos(net, MonitorConfig{10.0, 60.0, {}});
  remos.start();                 // poll at t=0 (idle)
  net.sim().run_until(2.0);
  net.network().start_flow(m1, m13, 1e12, sim::kBackgroundOwner);
  net.sim().run_until(5.0);      // next poll is at t=10
  auto snap = remos.snapshot();
  auto links = net.routes().route(m1, m13);
  EXPECT_DOUBLE_EQ(snap.bw(links[0]), snap.maxbw(links[0]));
  net.sim().run_until(11.0);     // poll at t=10 saw the flow
  snap = remos.snapshot();
  EXPECT_LT(snap.bw(links[0]), snap.maxbw(links[0]) * 0.05 + 1e4);
}

TEST_F(RemosFixture, FlowQueryBottleneckResidual) {
  Remos remos(net);
  remos.start();
  net.sim().run_until(2.0);
  EXPECT_NEAR(remos.available_bandwidth(m1, m2), 100e6, 1.0);
  // Cross-router path is limited by the 100 Mbps segments even though the
  // ATM link offers 155.
  EXPECT_NEAR(remos.available_bandwidth(m1, m13), 100e6, 1.0);
  EXPECT_TRUE(std::isinf(remos.available_bandwidth(m1, m1)));
}

TEST_F(RemosFixture, FlowQueryAccountsForSharing) {
  Remos remos(net);
  net.network().start_flow(m1, m2, 1e12, sim::kBackgroundOwner);
  remos.start();
  net.sim().run_until(4.0);
  // Residual on m-1's uplink is ~0, but a new flow would get a fair share
  // of capacity/(flows+1) = 50 Mbps.
  double projected = remos.projected_flow_bandwidth(m1, m2);
  EXPECT_NEAR(projected, 50e6, 1e6);
  double residual = remos.available_bandwidth(m1, m2);
  EXPECT_LT(residual, 1e6);
}

TEST_F(RemosFixture, OwnerExclusionRemovesOwnContribution) {
  sim::OwnerTag app = net.new_owner();
  net.host(m1).submit(1e9, app);
  net.host(m1).submit(1e9, sim::kBackgroundOwner);
  Remos remos(net);
  net.sim().run_until(600.0);
  remos.start();
  QueryOptions all;
  QueryOptions excl;
  excl.exclude_owner = app;
  EXPECT_NEAR(remos.load_average(m1, all), 2.0, 1e-2);
  EXPECT_NEAR(remos.load_average(m1, excl), 1.0, 1e-2);
  auto snap_all = remos.snapshot(all);
  auto snap_excl = remos.snapshot(excl);
  EXPECT_LT(snap_all.cpu(m1), snap_excl.cpu(m1));
}

TEST_F(RemosFixture, OwnerExclusionOnLinks) {
  sim::OwnerTag app = net.new_owner();
  net.network().start_flow(m1, m2, 1e12, app);
  Remos remos(net);
  remos.start();
  net.sim().run_until(4.0);
  QueryOptions excl;
  excl.exclude_owner = app;
  auto snap = remos.snapshot(excl);
  auto links = net.routes().route(m1, m2);
  EXPECT_NEAR(snap.bw(links[0]), snap.maxbw(links[0]), 1e3)
      << "own traffic must be excluded";
}

TEST_F(RemosFixture, SnapshotHelpers) {
  NetworkSnapshot snap(net.topology());
  snap.set_loadavg(m1, 3.0);
  EXPECT_DOUBLE_EQ(snap.cpu(m1), 0.25);
  snap.set_cpu(m1, 0.5);
  EXPECT_DOUBLE_EQ(snap.cpu_reference(m1, 1.0), 0.5);
  EXPECT_THROW(snap.set_cpu(net.topology().find_node("panama").value(), 0.5),
               std::invalid_argument);
  EXPECT_THROW(snap.set_cpu(m1, 1.5), std::invalid_argument);
  EXPECT_THROW(snap.set_bw(0, -1.0), std::invalid_argument);
  snap.set_bw(0, 5e6);
  EXPECT_DOUBLE_EQ(snap.bw(0), 5e6);
  EXPECT_DOUBLE_EQ(snap.bw_reference(0, 10e6), 0.5);
  EXPECT_THROW(snap.cpu_reference(m1, 0.0), std::invalid_argument);
}

TEST_F(RemosFixture, MonitorConfigValidation) {
  EXPECT_THROW(Monitor(net, MonitorConfig{0.0, 30.0, {}}),
               std::invalid_argument);
  EXPECT_THROW(Monitor(net, MonitorConfig{5.0, 2.0, {}}),
               std::invalid_argument);
}

TEST_F(RemosFixture, MonitorDoubleStartIsNoOp) {
  Remos remos(net, MonitorConfig{2.0, 30.0, {}});
  remos.start();
  net.sim().run_until(10.0);
  remos.start();  // must not re-poll or double the cadence
  net.sim().run_until(20.0);
  // On-time polls at t = 0, 2, ..., 20 and nothing else.
  EXPECT_EQ(remos.monitor().polls_completed(), 11u);
  EXPECT_EQ(remos.monitor().load_history(m1).size(), 11u);
}

TEST_F(RemosFixture, NullForecasterRejectedEverywhere) {
  Remos remos(net);
  remos.start();
  net.sim().run_until(2.0);
  QueryOptions q;
  q.forecaster = nullptr;
  EXPECT_THROW(remos.snapshot(q), std::invalid_argument);
  EXPECT_THROW(remos.load_average(m1, q), std::invalid_argument);
  EXPECT_THROW(remos.available_bandwidth(m1, m2, q), std::invalid_argument);
  EXPECT_THROW(remos.projected_flow_bandwidth(m1, m2, q),
               std::invalid_argument);
  // Regression: the src == dst shortcut used to bypass validation.
  EXPECT_THROW(remos.available_bandwidth(m1, m1, q), std::invalid_argument);
  EXPECT_THROW(remos.projected_flow_bandwidth(m1, m1, q),
               std::invalid_argument);
}

TEST_F(RemosFixture, QueryQualityCountsSensors) {
  Remos remos(net);
  remos.start();
  net.sim().run_until(10.0);
  QueryQuality quality;
  QueryOptions q;
  q.quality = &quality;
  auto warm = remos.snapshot(q);
  // One sensor per compute node's load series, one per link direction.
  EXPECT_EQ(quality.sensors_total, net.topology().compute_node_count() +
                                       2 * net.topology().link_count());
  EXPECT_EQ(quality.sensors_fresh, quality.sensors_total);
  EXPECT_DOUBLE_EQ(quality.coverage(), 1.0);
  // Default horizon is the monitor's history window.
  EXPECT_DOUBLE_EQ(quality.horizon, remos.monitor().config().history_window);
  EXPECT_LE(quality.oldest_age, quality.horizon);

  // Attaching quality is purely observational: answers are unchanged.
  auto plain = remos.snapshot();
  EXPECT_DOUBLE_EQ(warm.cpu(m1), plain.cpu(m1));
  EXPECT_DOUBLE_EQ(warm.bw(0), plain.bw(0));
}

TEST_F(RemosFixture, QueryQualityFlagsStaleSensors) {
  Remos remos(net, MonitorConfig{2.0, 30.0, {}});
  remos.start();
  net.sim().run_until(10.0);
  remos.monitor().stop();
  net.sim().run_until(60.0);  // newest sample 50 s old, window 30 s
  QueryQuality quality;
  QueryOptions q;
  q.quality = &quality;
  auto snap = remos.snapshot(q);
  EXPECT_EQ(quality.sensors_fresh, 0u);
  EXPECT_DOUBLE_EQ(quality.coverage(), 0.0);
  EXPECT_GT(quality.newest_age, 30.0);
  // But with the default infinite max_sample_age the answer itself still
  // consumes the stalled samples — bit-identical historical behaviour.
  EXPECT_DOUBLE_EQ(snap.cpu(m1), 1.0);
}

TEST_F(RemosFixture, MaxSampleAgeBoundsAnswers) {
  Remos remos(net, MonitorConfig{2.0, 30.0, {}});
  net.network().start_flow(m1, m13, 1e12, sim::kBackgroundOwner);
  remos.start();
  net.sim().run_until(4.0);
  remos.monitor().stop();
  net.sim().run_until(50.0);
  auto links = net.routes().route(m1, m13);

  QueryOptions stale;  // default: trust the stalled measurement forever
  auto seen = remos.snapshot(stale);
  EXPECT_LT(seen.bw(links[0]), seen.maxbw(links[0]) * 0.05 + 1e4);

  QueryOptions bounded;
  bounded.max_sample_age = 5.0;  // newest sample is ~46 s old
  auto fallback = remos.snapshot(bounded);
  EXPECT_DOUBLE_EQ(fallback.bw(links[0]), fallback.maxbw(links[0]));
  EXPECT_DOUBLE_EQ(fallback.cpu(m1), 1.0);
}

TEST_F(RemosFixture, SaturatedLinkFloorsAtKBwFloor) {
  Remos remos(net);
  net.network().start_flow(m1, m2, 1e12, sim::kBackgroundOwner);
  remos.start();
  net.sim().run_until(4.0);
  auto snap = remos.snapshot();
  // The flow consumes m-1's entire uplink; the snapshot reports the public
  // floor, not zero, so selection can still order saturated links.
  auto links = net.routes().route(m1, m2);
  EXPECT_DOUBLE_EQ(snap.bw(links[0]), kBwFloor);
}

TEST_F(RemosFixture, OwnerExclusionClampsToZero) {
  // A trend forecaster can extrapolate the *total* below the owner's own
  // steady contribution (declining background, steady owner): the excluded
  // load must clamp at zero, never go negative.
  sim::OwnerTag app = net.new_owner();
  net.host(m1).submit(1e12, app);  // owner busy for the whole test
  net.host(m1).submit(1.0, sim::kBackgroundOwner);  // finishes immediately
  Remos remos(net, MonitorConfig{2.0, 30.0, {}});
  net.sim().run_until(5.0);  // let background load start decaying
  remos.start();
  net.sim().run_until(40.0);
  QueryOptions q;
  q.exclude_owner = app;
  q.forecaster = std::make_shared<LinearTrend>(600.0);
  double load = remos.load_average(m1, q);
  EXPECT_GE(load, 0.0);
  EXPECT_DOUBLE_EQ(load, 0.0);
}

/// Answers `value` for every series except two, which answer NaN (a
/// diverged model, or a NaN sample recorded into the series).
class PoisonForecaster final : public Forecaster {
 public:
  PoisonForecaster(const TimeSeries* a, const TimeSeries* b, double value)
      : a_(a), b_(b), value_(value) {}
  double estimate(const TimeSeries& ts, double) const override {
    if (&ts == a_ || &ts == b_) return std::numeric_limits<double>::quiet_NaN();
    return value_;
  }
  std::string name() const override { return "poison"; }

 private:
  const TimeSeries* a_;
  const TimeSeries* b_;
  double value_;
};

TEST_F(RemosFixture, RefreshSkipsNonFiniteForecasts) {
  Remos remos(net);
  remos.start();
  net.sim().run_until(4.0);
  NetworkSnapshot snap = remos.snapshot();
  const auto& g = net.topology();
  const topo::LinkId bad_link = net.routes().route(m1, m13)[0];
  const double cpu_before = snap.cpu(m1);
  const double bw_before = snap.bw_dir(bad_link, true);

  obs::set_enabled(true);
  obs::Registry::global().reset();
  QueryOptions q;
  constexpr double kUsed = 1e6;  // every other forecast: load, bytes, bps
  q.forecaster = std::make_shared<PoisonForecaster>(
      &remos.monitor().load_history(m1),
      &remos.monitor().link_history(bad_link, true), kUsed);
  const std::uint64_t flights = obs::FlightRecorder::global().recorded();
  EXPECT_NO_THROW(remos.refresh_snapshot(snap, q));
  const std::uint64_t skipped =
      obs::Registry::global().counter("remos.refresh.nonfinite").value();
  obs::Registry::global().reset();
  obs::set_enabled(false);
  EXPECT_EQ(skipped, 2u);

  // The two poisoned sensors keep their readings; every other one, before
  // and after them in id order, takes the new forecast.
  EXPECT_EQ(snap.cpu(m1), cpu_before);
  EXPECT_EQ(snap.bw_dir(bad_link, true), bw_before);
  for (const topo::NodeId n : g.compute_nodes()) {
    EXPECT_EQ(snap.free_memory(n), kUsed) << g.node_name(n);
    if (n != m1) {
      EXPECT_EQ(snap.cpu(n), 1.0 / (1.0 + kUsed)) << g.node_name(n);
    }
  }
  for (std::size_t i = 0; i < g.link_count(); ++i) {
    const auto l = static_cast<topo::LinkId>(i);
    const topo::Link& lk = g.link(l);
    if (l != bad_link) {
      EXPECT_EQ(snap.bw_dir(l, true), std::max(lk.capacity_ab - kUsed, kBwFloor))
          << g.link_name(l);
    }
    EXPECT_EQ(snap.bw_dir(l, false), std::max(lk.capacity_ba - kUsed, kBwFloor))
        << g.link_name(l);
  }

  // One flight event for the refresh, carrying the count.
  ASSERT_EQ(obs::FlightRecorder::global().recorded(), flights + 1);
  const obs::FlightEvent ev = obs::FlightRecorder::global().tail(1).at(0);
  EXPECT_EQ(ev.kind, obs::FlightKind::NonFiniteForecast);
  EXPECT_EQ(ev.a, 2u);
}

// Every snapshot write entry point rejects NaN, infinite and out-of-range
// input before touching state: no value changes and no delta is recorded.
class SnapshotInputs : public ::testing::Test {
 protected:
  static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  topo::TopologyGraph g = topo::testbed();
  NetworkSnapshot snap{g};
  topo::NodeId m1 = g.find_node("m-1").value();
  topo::NodeId past_nodes = static_cast<topo::NodeId>(g.node_count());
  topo::LinkId past_links = static_cast<topo::LinkId>(g.link_count());
};

TEST_F(SnapshotInputs, SetCpuRejectsNaNAndOutOfRange) {
  const auto e0 = snap.epoch();
  EXPECT_THROW(snap.set_cpu(m1, kNaN), std::invalid_argument);
  EXPECT_THROW(snap.set_cpu(m1, kInf), std::invalid_argument);
  EXPECT_THROW(snap.set_cpu(past_nodes, 0.5), std::invalid_argument);
  EXPECT_THROW(snap.set_cpu(-1, 0.5), std::invalid_argument);
  // set_loadavg goes through set_cpu: a NaN load is rejected, an infinite
  // one is a fully loaded host.
  EXPECT_THROW(snap.set_loadavg(m1, kNaN), std::invalid_argument);
  EXPECT_THROW(snap.set_loadavg(past_nodes, 1.0), std::invalid_argument);
  EXPECT_EQ(snap.epoch(), e0);
  EXPECT_EQ(snap.cpu(m1), 1.0);
  snap.set_loadavg(m1, kInf);
  EXPECT_EQ(snap.cpu(m1), 0.0);
}

TEST_F(SnapshotInputs, SetFreeMemoryRejectsNonFiniteAndOutOfRange) {
  const auto e0 = snap.epoch();
  const double before = snap.free_memory(m1);
  EXPECT_THROW(snap.set_free_memory(m1, kNaN), std::invalid_argument);
  EXPECT_THROW(snap.set_free_memory(m1, kInf), std::invalid_argument);
  EXPECT_THROW(snap.set_free_memory(past_nodes, 1e9), std::invalid_argument);
  EXPECT_THROW(snap.set_free_memory(-1, 1e9), std::invalid_argument);
  EXPECT_EQ(snap.epoch(), e0);
  EXPECT_EQ(snap.free_memory(m1), before);
  snap.set_free_memory(m1, -5.0);  // negative still clamps to 0
  EXPECT_EQ(snap.free_memory(m1), 0.0);
}

TEST_F(SnapshotInputs, SetBwRejectsNonFiniteAndOutOfRange) {
  const auto e0 = snap.epoch();
  const double before = snap.bw(0);
  EXPECT_THROW(snap.set_bw(0, kNaN), std::invalid_argument);
  EXPECT_THROW(snap.set_bw(0, kInf), std::invalid_argument);
  EXPECT_THROW(snap.set_bw(past_links, 1e6), std::invalid_argument);
  EXPECT_THROW(snap.set_bw(-1, 1e6), std::invalid_argument);
  EXPECT_EQ(snap.epoch(), e0);
  EXPECT_EQ(snap.bw(0), before);
  EXPECT_EQ(snap.bw_dir(0, true), before);
}

TEST_F(SnapshotInputs, SetBwDirRejectsNonFiniteAndOutOfRange) {
  const auto e0 = snap.epoch();
  const double before = snap.bw(0);
  for (bool forward : {true, false}) {
    EXPECT_THROW(snap.set_bw_dir(0, forward, kNaN), std::invalid_argument);
    EXPECT_THROW(snap.set_bw_dir(0, forward, kInf), std::invalid_argument);
    EXPECT_THROW(snap.set_bw_dir(past_links, forward, 1e6),
                 std::invalid_argument);
    EXPECT_THROW(snap.set_bw_dir(-1, forward, 1e6), std::invalid_argument);
  }
  EXPECT_EQ(snap.epoch(), e0);
  EXPECT_EQ(snap.bw(0), before);
}

// bw(l) is the min of the two directions after every kind of link write,
// and each write's delta carries that value. Asymmetric links make the two
// directions differ from the start.
TEST_F(SnapshotInputs, BwIsMinOfDirectionsAfterEveryWrite) {
  util::Rng rng(20);
  const auto pick_node = [&] {
    return static_cast<topo::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
  };
  const auto pick_live_link = [&] {
    topo::LinkId l;
    do {
      l = static_cast<topo::LinkId>(
          rng.uniform_int(0, static_cast<std::int64_t>(g.link_count()) - 1));
    } while (g.link_removed(l));
    return l;
  };
  const auto add_asymmetric_link = [&] {
    const topo::NodeId a = pick_node();
    topo::NodeId b = pick_node();
    while (b == a) b = pick_node();
    const double ab = rng.uniform(1e6, 1e9);
    const topo::LinkId l = g.add_link(a, b, ab, ab * rng.uniform(0.1, 0.9));
    snap.notify_link_added(l);
    return l;
  };
  for (int i = 0; i < 4; ++i) add_asymmetric_link();
  std::size_t live = 0;
  for (std::size_t k = 0; k < g.link_count(); ++k)
    if (!g.link_removed(static_cast<topo::LinkId>(k))) ++live;

  for (int op = 0; op < 400; ++op) {
    const std::uint64_t e0 = snap.epoch();
    topo::LinkId l = topo::kInvalidLink;
    DeltaKind kind = DeltaKind::LinkBandwidth;
    const std::string what = "op " + std::to_string(op);
    // Removals stop while few links are left, so a live link always exists.
    switch (std::min<std::int64_t>(rng.uniform_int(0, 5), live > 8 ? 5 : 4)) {
      case 0:
      case 1: {
        l = pick_live_link();
        const double v = rng.uniform(0.0, 2.0 * snap.maxbw(l));
        snap.set_bw(l, v);
        EXPECT_EQ(snap.bw_dir(l, true), v) << what;
        EXPECT_EQ(snap.bw_dir(l, false), v) << what;
        break;
      }
      case 2:
      case 3: {
        l = pick_live_link();
        const bool forward = rng.bernoulli(0.5);
        const double other = snap.bw_dir(l, !forward);
        const double v = rng.uniform(0.0, 2.0 * snap.maxbw(l));
        snap.set_bw_dir(l, forward, v);
        EXPECT_EQ(snap.bw_dir(l, forward), v) << what;
        EXPECT_EQ(snap.bw_dir(l, !forward), other) << what;
        break;
      }
      case 4: {
        l = add_asymmetric_link();
        ++live;
        kind = DeltaKind::LinkAdded;
        EXPECT_EQ(snap.bw_dir(l, true), g.link(l).capacity_ab) << what;
        EXPECT_EQ(snap.bw_dir(l, false), g.link(l).capacity_ba) << what;
        break;
      }
      default: {
        l = pick_live_link();
        kind = DeltaKind::LinkRemoved;
        g.remove_link(l);
        snap.notify_link_removed(l);
        --live;
        EXPECT_EQ(snap.bw(l), 0.0) << what;
        break;
      }
    }
    for (std::size_t k = 0; k < g.link_count(); ++k) {
      const auto lk = static_cast<topo::LinkId>(k);
      ASSERT_EQ(snap.bw(lk),
                std::min(snap.bw_dir(lk, true), snap.bw_dir(lk, false)))
          << what << " link " << k;
    }
    std::vector<Delta> deltas;
    ASSERT_TRUE(snap.deltas_since(e0, deltas)) << what;
    ASSERT_EQ(deltas.size(), 1u) << what;
    EXPECT_EQ(deltas.back().kind, kind) << what;
    EXPECT_EQ(deltas.back().link, l) << what;
    if (kind != DeltaKind::LinkRemoved) {
      EXPECT_EQ(deltas.back().value, snap.bw(l)) << what;
    }
  }
}

}  // namespace
}  // namespace netsel::remos
