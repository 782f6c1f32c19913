// Tests for per-owner attribution through the whole measurement chain —
// host trackers, network accounting, monitor owner series, and Remos
// exclusion queries. This machinery is what keeps a migrating application
// from mistaking its own (stale-measured) load and traffic for competition;
// a time-misaligned exclusion caused controller thrashing during
// development, so the alignment is pinned down here.

#include <gtest/gtest.h>

#include "appsim/loosely_synchronous.hpp"
#include "remos/remos.hpp"
#include "topo/generators.hpp"

namespace netsel::remos {
namespace {

struct Fixture : ::testing::Test {
  sim::NetworkSim net{topo::testbed()};
  topo::NodeId m1 = net.topology().find_node("m-1").value();
  topo::NodeId m2 = net.topology().find_node("m-2").value();
};

TEST_F(Fixture, HostTracksOwnersSeparately) {
  sim::OwnerTag app = net.new_owner();
  net.host(m1).submit(1e9, app);
  net.host(m1).submit(1e9, sim::kBackgroundOwner);
  net.host(m1).submit(1e9, sim::kBackgroundOwner);
  net.sim().run_until(600.0);
  auto& h = net.host(m1);
  EXPECT_NEAR(h.load_average(), 3.0, 1e-2);
  EXPECT_NEAR(h.owner_load_average(app), 1.0, 1e-2);
  EXPECT_NEAR(h.owner_load_average(sim::kBackgroundOwner), 2.0, 1e-2);
  EXPECT_NEAR(h.owner_load_average(999), 0.0, 1e-12);
  auto owners = h.tracked_owners();
  EXPECT_EQ(owners.size(), 2u);
}

TEST_F(Fixture, OwnerLoadSumsToTotal) {
  sim::OwnerTag a = net.new_owner();
  sim::OwnerTag b = net.new_owner();
  net.host(m1).submit(40.0, a);
  net.host(m1).submit(80.0, b);
  net.host(m1).submit(1e9, sim::kBackgroundOwner);
  for (double t : {10.0, 60.0, 130.0, 400.0}) {
    net.sim().run_until(t);
    auto& h = net.host(m1);
    double sum = h.owner_load_average(a) + h.owner_load_average(b) +
                 h.owner_load_average(sim::kBackgroundOwner);
    EXPECT_NEAR(sum, h.load_average(), 1e-9) << "t=" << t;
  }
}

TEST_F(Fixture, NetworkOwnerUsage) {
  sim::OwnerTag app = net.new_owner();
  net.network().start_flow(m1, m2, 1e12, app);
  net.network().start_flow(m1, m2, 1e12, sim::kBackgroundOwner);
  const topo::Hop h = net.routes().route(m1, m2)[0];
  EXPECT_NEAR(net.network().link_used_bw_by(h.link, h.forward, app), 50e6,
              1.0);
  EXPECT_NEAR(net.network().link_used_bw_by(h.link, h.forward,
                                            sim::kBackgroundOwner),
              50e6, 1.0);
  auto owners = net.network().active_owners();
  EXPECT_EQ(owners.size(), 2u);
}

TEST_F(Fixture, MonitorRecordsOwnerSeries) {
  sim::OwnerTag app = net.new_owner();
  net.host(m1).submit(1e9, app);
  Monitor monitor(net);
  monitor.start();
  net.sim().run_until(10.0);
  const TimeSeries* series = monitor.owner_load_history(m1, app);
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->size(), monitor.load_history(m1).size());
  EXPECT_GT(series->latest().value, 0.0);
  EXPECT_EQ(monitor.owner_load_history(m1, 12345), nullptr);
}

TEST_F(Fixture, OwnerSeriesDecaysAfterActivityStops) {
  // Once seen, an owner keeps being recorded (zeros) so its series decays
  // instead of freezing at the last busy value.
  sim::OwnerTag app = net.new_owner();
  Monitor monitor(net);
  monitor.start();
  sim::JobId job = net.host(m1).submit(1e9, app);
  net.sim().run_until(300.0);
  net.host(m1).kill(job);
  net.sim().run_until(900.0);
  const TimeSeries* series = monitor.owner_load_history(m1, app);
  ASSERT_NE(series, nullptr);
  EXPECT_LT(series->latest().value, 0.01)
      << "owner load must decay after the job is gone";
}

TEST_F(Fixture, ExclusionIsTimeAligned) {
  // The poll at t=10 catches the app's burst; at query time the app is
  // idle. A live-value exclusion would subtract ~0 and leave the app's own
  // burst in the measurement; the aligned exclusion removes it fully.
  sim::OwnerTag app = net.new_owner();
  Remos remos(net, MonitorConfig{10.0, 60.0, {}});
  remos.start();
  // App traffic burst covering the t=10 poll, gone by t=12.
  net.sim().schedule_at(9.0, [&] {
    net.network().start_flow(m1, m2, 12.5e6 * 2.5, app);  // ~2.5 s at 100 Mbps
  });
  net.sim().run_until(13.0);
  ASSERT_EQ(net.network().active_flows(), 0) << "burst should be over";

  QueryOptions with;
  QueryOptions excl;
  excl.exclude_owner = app;
  const topo::LinkId l = net.routes().route(m1, m2)[0].link;
  auto snap_with = remos.snapshot(with);
  auto snap_excl = remos.snapshot(excl);
  // Without exclusion the stale measurement shows the link busy.
  EXPECT_LT(snap_with.bw(l), 1e6);
  // With aligned exclusion the link is (correctly) free.
  EXPECT_NEAR(snap_excl.bw(l), snap_excl.maxbw(l), 1e3);
}

TEST_F(Fixture, ExclusionDoesNotHideCompetingTraffic) {
  sim::OwnerTag app = net.new_owner();
  net.network().start_flow(m1, m2, 1e12, app);
  net.network().start_flow(m1, m2, 1e12, sim::kBackgroundOwner);
  Remos remos(net);
  remos.start();
  net.sim().run_until(4.0);
  QueryOptions excl;
  excl.exclude_owner = app;
  auto snap = remos.snapshot(excl);
  const topo::LinkId l = net.routes().route(m1, m2)[0].link;
  // Background flow (50 Mbps) must remain visible: available ~50, not 100.
  EXPECT_NEAR(snap.bw(l), 50e6, 2e6);
}

TEST_F(Fixture, RunningAppSeesItselfExcludedEndToEnd) {
  // A compute+comm application queries Remos about its own nodes: with
  // exclusion, cpu looks free and links look clean despite its activity.
  Remos remos(net);
  remos.start();
  appsim::LooselySyncConfig cfg;
  cfg.num_nodes = 2;
  cfg.iterations = 1000;
  cfg.phases = {appsim::PhaseSpec{1.0, 4e6, appsim::CommPattern::Ring}};
  appsim::LooselySynchronousApp app(net, cfg);
  app.start({m1, m2});
  net.sim().run_until(400.0);
  QueryOptions excl;
  excl.exclude_owner = app.owner();
  auto snap = remos.snapshot(excl);
  EXPECT_GT(snap.cpu(m1), 0.9);
  EXPECT_GT(snap.cpu(m2), 0.9);
  auto snap_raw = remos.snapshot();
  EXPECT_LT(snap_raw.cpu(m1), 0.7) << "raw measurement must see the app";
}

}  // namespace
}  // namespace netsel::remos
