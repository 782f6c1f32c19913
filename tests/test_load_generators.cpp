#include "load/load_generator.hpp"
#include "load/traffic_generator.hpp"

#include <gtest/gtest.h>

#include "topo/generators.hpp"

namespace netsel::load {
namespace {

sim::NetworkSimConfig default_cfg() { return {}; }

TEST(LoadGen, GeneratesJobsAtConfiguredRate) {
  sim::NetworkSim net(topo::testbed(), default_cfg());
  LoadGenConfig cfg;
  cfg.mean_interarrival = 10.0;
  HostLoadGenerator gen(net, cfg, util::Rng(1));
  gen.start();
  net.sim().run_until(2000.0);
  // 18 nodes * 2000 s / 10 s mean = 3600 expected arrivals.
  double expected = 18.0 * 2000.0 / 10.0;
  EXPECT_NEAR(static_cast<double>(gen.jobs_generated()), expected,
              expected * 0.1);
}

TEST(LoadGen, IntensityScalesRate) {
  sim::NetworkSim net(topo::testbed(), default_cfg());
  LoadGenConfig cfg;
  cfg.mean_interarrival = 10.0;
  cfg.intensity = 2.0;
  HostLoadGenerator gen(net, cfg, util::Rng(1));
  gen.start();
  net.sim().run_until(1000.0);
  double expected = 18.0 * 1000.0 / 5.0;
  EXPECT_NEAR(static_cast<double>(gen.jobs_generated()), expected,
              expected * 0.1);
}

TEST(LoadGen, ZeroIntensityGeneratesNothing) {
  sim::NetworkSim net(topo::testbed(), default_cfg());
  LoadGenConfig cfg;
  cfg.intensity = 0.0;
  HostLoadGenerator gen(net, cfg, util::Rng(1));
  gen.start();
  EXPECT_FALSE(gen.running());
  net.sim().run_until(500.0);
  EXPECT_EQ(gen.jobs_generated(), 0u);
}

TEST(LoadGen, StopHaltsNewArrivals) {
  sim::NetworkSim net(topo::testbed(), default_cfg());
  LoadGenConfig cfg;
  cfg.mean_interarrival = 5.0;
  HostLoadGenerator gen(net, cfg, util::Rng(2));
  gen.start();
  net.sim().run_until(200.0);
  gen.stop();
  auto count = gen.jobs_generated();
  EXPECT_GT(count, 0u);
  net.sim().run_until(1000.0);
  EXPECT_EQ(gen.jobs_generated(), count);
}

TEST(LoadGen, DeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    sim::NetworkSim net(topo::testbed(), default_cfg());
    HostLoadGenerator gen(net, LoadGenConfig{}, util::Rng(seed));
    gen.start();
    net.sim().run_until(800.0);
    return std::pair(gen.jobs_generated(), gen.total_work_generated());
  };
  auto [n1, w1] = run(7);
  auto [n2, w2] = run(7);
  auto [n3, w3] = run(8);
  EXPECT_EQ(n1, n2);
  EXPECT_DOUBLE_EQ(w1, w2);
  EXPECT_TRUE(n1 != n3 || w1 != w3);
}

TEST(LoadGen, JobsActuallyLoadHosts) {
  sim::NetworkSim net(topo::testbed(), default_cfg());
  LoadGenConfig cfg;
  cfg.mean_interarrival = 5.0;  // heavy
  HostLoadGenerator gen(net, cfg, util::Rng(3));
  gen.start();
  net.sim().run_until(1200.0);
  double total_load = 0.0;
  for (topo::NodeId n : net.topology().compute_nodes())
    total_load += net.host(n).load_average();
  EXPECT_GT(total_load, 1.0) << "synthetic jobs should raise load averages";
}

TEST(LoadGen, OfferedLoadFormula) {
  sim::NetworkSim net(topo::testbed(), default_cfg());
  LoadGenConfig cfg;
  cfg.mean_interarrival = 50.0;
  cfg.p_exponential = 1.0;  // pure exponential, mean 4
  cfg.exp_mean = 4.0;
  HostLoadGenerator gen(net, cfg, util::Rng(4));
  EXPECT_NEAR(gen.offered_load_per_node(), 4.0 / 50.0, 1e-12);
}

TEST(LoadGen, Rejections) {
  sim::NetworkSim net(topo::testbed(), default_cfg());
  LoadGenConfig bad;
  bad.mean_interarrival = 0.0;
  EXPECT_THROW(HostLoadGenerator(net, bad, util::Rng(1)), std::invalid_argument);
  bad = LoadGenConfig{};
  bad.intensity = -1.0;
  EXPECT_THROW(HostLoadGenerator(net, bad, util::Rng(1)), std::invalid_argument);
}

TEST(TrafficGen, GeneratesMessagesAtConfiguredRate) {
  sim::NetworkSim net(topo::testbed(), default_cfg());
  TrafficGenConfig cfg;
  cfg.mean_interarrival = 1.0;
  cfg.size_mean_bytes = 1e5;  // keep the network uncongested
  cfg.size_sigma = 0.5;
  TrafficGenerator gen(net, cfg, util::Rng(5));
  gen.start();
  net.sim().run_until(3000.0);
  EXPECT_NEAR(static_cast<double>(gen.messages_generated()), 3000.0, 300.0);
}

TEST(TrafficGen, MeanMessageSizeMatches) {
  sim::NetworkSim net(topo::testbed(), default_cfg());
  TrafficGenConfig cfg;
  cfg.mean_interarrival = 0.5;
  cfg.size_mean_bytes = 2e6;
  cfg.size_sigma = 1.0;
  TrafficGenerator gen(net, cfg, util::Rng(6));
  gen.start();
  net.sim().run_until(5000.0);
  double mean_size = gen.total_bytes_generated() /
                     static_cast<double>(gen.messages_generated());
  EXPECT_NEAR(mean_size, 2e6, 2e5);
}

TEST(TrafficGen, FlowsTraverseTheNetwork) {
  sim::NetworkSim net(topo::testbed(), default_cfg());
  TrafficGenConfig cfg;
  cfg.mean_interarrival = 0.05;
  cfg.size_mean_bytes = 50e6;
  TrafficGenerator gen(net, cfg, util::Rng(7));
  gen.start();
  net.sim().run_until(30.0);
  EXPECT_GT(net.network().active_flows(), 0);
}

TEST(TrafficGen, StopHaltsGeneration) {
  sim::NetworkSim net(topo::testbed(), default_cfg());
  TrafficGenConfig cfg;
  cfg.mean_interarrival = 0.5;
  TrafficGenerator gen(net, cfg, util::Rng(8));
  gen.start();
  net.sim().run_until(50.0);
  gen.stop();
  auto count = gen.messages_generated();
  net.sim().run_until(500.0);
  EXPECT_EQ(gen.messages_generated(), count);
}

TEST(TrafficGen, OfferedBitsFormula) {
  sim::NetworkSim net(topo::testbed(), default_cfg());
  TrafficGenConfig cfg;
  cfg.mean_interarrival = 2.0;
  cfg.size_mean_bytes = 1e6;
  TrafficGenerator gen(net, cfg, util::Rng(9));
  EXPECT_NEAR(gen.offered_bits_per_second(), 1e6 * 8.0 / 2.0, 1.0);
}

TEST(TrafficGen, RequiresTwoHosts) {
  sim::NetworkSim net(topo::star(1), default_cfg());
  EXPECT_THROW(TrafficGenerator(net, TrafficGenConfig{}, util::Rng(1)),
               std::invalid_argument);
}

TEST(BulkStreamTest, HoldsBandwidthContinuously) {
  sim::NetworkSim net(topo::testbed(), default_cfg());
  topo::NodeId m16 = net.topology().find_node("m-16").value();
  topo::NodeId m18 = net.topology().find_node("m-18").value();
  BulkStream stream(net, m16, m18);
  stream.start();
  net.sim().run_until(10.0);
  // Full 100 Mbps for 10 s = 125 MB (chunk boundaries are seamless).
  EXPECT_GT(stream.bytes_transferred() +
                0.0,  // transferred counts only completed chunks so far
            0.0);
  // The links on the m-16 -> m-18 route are busy right now.
  const topo::Hop h = net.routes().route(m16, m18)[0];
  EXPECT_NEAR(net.network().link_used_bw(h.link, h.forward), 100e6, 1e3);
  stream.stop();
  EXPECT_NEAR(stream.bytes_transferred(), 125e6, 1e6);
  net.sim().run_until(20.0);
  EXPECT_NEAR(net.network().link_used_bw(h.link, h.forward), 0.0, 1e-9);
}

TEST(BulkStreamTest, Rejections) {
  sim::NetworkSim net(topo::testbed(), default_cfg());
  topo::NodeId m1 = net.topology().find_node("m-1").value();
  EXPECT_THROW(BulkStream(net, m1, m1), std::invalid_argument);
  topo::NodeId m2 = net.topology().find_node("m-2").value();
  EXPECT_THROW(BulkStream(net, m1, m2, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace netsel::load
