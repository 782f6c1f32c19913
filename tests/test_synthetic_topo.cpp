// Tests for the synthetic datacenter-scale topology generators
// (topo/synthetic.hpp): golden-file snapshots of tiny instances, structural
// invariants (degrees, bisection bandwidth, connectivity, heterogeneity
// ranges) across seeds, determinism from the seed, .topo round-tripping
// through format_topology/parse_topology, and option validation.
//
// The golden files live in tests/golden/ and are regenerated with the CLI:
//   netsel_cli --generate fat-tree:hosts=6,ports=4,oversub=2,seed=3 --emit-topo
//   netsel_cli --generate campus-wan:campuses=2,buildings=1,hosts=2,seed=9 --emit-topo

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "topo/connectivity.hpp"
#include "topo/generators.hpp"
#include "topo/parse.hpp"
#include "topo/synthetic.hpp"

namespace netsel::topo {
namespace {

std::string read_golden(const std::string& name) {
  const std::string path =
      std::string(NETSEL_SOURCE_DIR) + "/tests/golden/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------- goldens

TEST(SyntheticGolden, FatTreeTinySnapshot) {
  auto g = fat_tree(fat_tree_for_hosts(6, 4, 2.0, 3));
  EXPECT_EQ(format_topology(g), read_golden("fat_tree_tiny.topo"));
}

TEST(SyntheticGolden, CampusWanTinySnapshot) {
  CampusWanOptions opt;
  opt.campuses = 2;
  opt.buildings_per_campus = 1;
  opt.hosts_per_building = 2;
  opt.seed = 9;
  EXPECT_EQ(format_topology(campus_wan(opt)),
            read_golden("campus_wan_tiny.topo"));
}

// ----------------------------------------------------------- sizing rules

TEST(FatTreeForHosts, PortSplitRespectsOversubscription) {
  struct Case {
    int hosts, ports;
    double oversub;
  };
  for (const Case& c : {Case{6, 4, 2.0}, Case{64, 24, 1.0}, Case{512, 48, 3.0},
                        Case{10000, 48, 3.0}, Case{7, 2, 10.0}}) {
    auto opt = fat_tree_for_hosts(c.hosts, c.ports, c.oversub);
    // Every edge-switch port is either a downlink or an uplink.
    EXPECT_EQ(opt.hosts_per_edge + opt.core_switches, c.ports)
        << c.hosts << "/" << c.ports;
    EXPECT_GE(opt.hosts_per_edge, 1);
    EXPECT_GE(opt.core_switches, 1);
    // Enough edge switches for the requested hosts, without a whole idle one.
    EXPECT_GE(opt.edge_switches * opt.hosts_per_edge, c.hosts);
    EXPECT_LT((opt.edge_switches - 1) * opt.hosts_per_edge, c.hosts);
  }
  // The documented example: 48 ports at 3:1 -> 36 down / 12 up.
  auto opt = fat_tree_for_hosts(10000, 48, 3.0);
  EXPECT_EQ(opt.hosts_per_edge, 36);
  EXPECT_EQ(opt.core_switches, 12);
  EXPECT_EQ(opt.edge_switches, 278);
}

// ------------------------------------------------------------- invariants

TEST(FatTree, StructuralInvariantsAcrossSeeds) {
  for (std::uint64_t seed : {1u, 5u, 9u}) {
    FatTreeOptions opt;
    opt.edge_switches = 6;
    opt.hosts_per_edge = 4;
    opt.core_switches = 3;
    opt.cpu_jitter = 0.2;
    opt.memory_bytes = 1e9;
    opt.seed = seed;
    auto g = fat_tree(opt);
    ASSERT_EQ(g.node_count(),
              static_cast<std::size_t>(3 + 6 * (1 + 4)));
    ASSERT_EQ(g.link_count(), static_cast<std::size_t>(6 * (3 + 4)));
    EXPECT_EQ(connected_components(g).count, 1);
    EXPECT_FALSE(g.is_acyclic()) << "edge switches mesh to >= 2 cores";
    for (std::size_t i = 0; i < g.node_count(); ++i) {
      const auto n = static_cast<NodeId>(i);
      const Node& node = g.node(n);
      const std::string_view name = g.node_name(n);
      if (name.rfind("core", 0) == 0) {
        EXPECT_EQ(g.degree(n), static_cast<std::size_t>(opt.edge_switches));
      } else if (name.rfind("edge", 0) == 0) {
        // Uplinks to every core plus one drop per host; the switch's cut
        // towards the core carries core_switches * uplink_bw.
        EXPECT_EQ(g.degree(n), static_cast<std::size_t>(opt.core_switches +
                                                        opt.hosts_per_edge));
        double uplink_capacity = 0.0;
        for (LinkId l : g.links_of(n))
          if (!g.is_compute(g.other_end(l, n)))
            uplink_capacity += g.link(l).capacity_min();
        EXPECT_DOUBLE_EQ(uplink_capacity,
                         opt.core_switches * opt.uplink_bw);
      } else {
        EXPECT_TRUE(g.is_compute(n));
        EXPECT_EQ(g.degree(n), 1u);
        EXPECT_GE(node.cpu_capacity, 1.0 - opt.cpu_jitter);
        EXPECT_LE(node.cpu_capacity, 1.0 + opt.cpu_jitter);
        EXPECT_DOUBLE_EQ(node.memory_bytes, opt.memory_bytes);
      }
    }
  }
}

TEST(FatTree, SingleCoreIsAcyclic) {
  FatTreeOptions opt;
  opt.core_switches = 1;
  EXPECT_TRUE(fat_tree(opt).is_acyclic());
}

TEST(CampusWan, StructuralInvariantsAcrossSeeds) {
  for (std::uint64_t seed : {2u, 4u, 8u}) {
    CampusWanOptions opt;
    opt.campuses = 3;
    opt.buildings_per_campus = 2;
    opt.hosts_per_building = 3;
    opt.seed = seed;
    auto g = campus_wan(opt);
    const int c = opt.campuses, b = opt.buildings_per_campus,
              h = opt.hosts_per_building;
    ASSERT_EQ(g.node_count(), static_cast<std::size_t>(1 + c + c * b +
                                                       c * b * h));
    EXPECT_TRUE(g.is_acyclic()) << "a tree of stars";
    EXPECT_EQ(connected_components(g).count, 1);
    EXPECT_EQ(g.compute_node_count(), static_cast<std::size_t>(c * b * h));
    for (auto n : g.compute_nodes()) {
      const Node& node = g.node(n);
      EXPECT_EQ(g.degree(n), 1u);
      EXPECT_GE(node.cpu_capacity, opt.cpu_capacity_min);
      EXPECT_LE(node.cpu_capacity, opt.cpu_capacity_max);
      EXPECT_TRUE(node.memory_bytes == 512e6 || node.memory_bytes == 1e9 ||
                  node.memory_bytes == 2e9)
          << node.memory_bytes;
      // c<k>-b<j>-h<i> carries the campus tag used by placement constraints.
      ASSERT_EQ(g.tags(n).size(), 1u);
      EXPECT_EQ(g.tags(n)[0],
                "campus" + std::string(g.node_name(n).substr(1, 1)));
    }
    // WAN trunk latencies are seeded draws from the configured range.
    auto core = g.find_node("wan-core");
    ASSERT_TRUE(core.has_value());
    for (LinkId l : g.links_of(*core)) {
      EXPECT_GE(g.link(l).latency, opt.wan_latency_min);
      EXPECT_LE(g.link(l).latency, opt.wan_latency_max);
      EXPECT_DOUBLE_EQ(g.link(l).capacity_min(), opt.wan_bw);
    }
  }
}

TEST(RandomCoreEdge, StructuralInvariantsAcrossSeeds) {
  for (std::uint64_t seed : {3u, 7u, 11u}) {
    RandomCoreEdgeOptions opt;
    opt.core_switches = 5;
    opt.edge_switches = 8;
    opt.hosts = 40;
    opt.seed = seed;
    auto g = random_core_edge(opt);
    ASSERT_EQ(g.node_count(), static_cast<std::size_t>(5 + 8 + 40));
    EXPECT_EQ(connected_components(g).count, 1);
    EXPECT_EQ(g.compute_node_count(), 40u);
    for (std::size_t i = 0; i < g.node_count(); ++i) {
      const auto n = static_cast<NodeId>(i);
      if (g.is_compute(n)) {
        EXPECT_EQ(g.degree(n), 1u);
        const LinkId l = g.links_of(n).front();
        EXPECT_GE(g.link(l).capacity_min(), opt.host_bw_min);
        EXPECT_LE(g.link(l).capacity_min(), opt.host_bw_max);
      } else if (g.node_name(n).rfind("edge", 0) == 0) {
        // Multi-homed to `uplinks_per_edge` *distinct* core switches.
        std::set<NodeId> uplinks;
        for (LinkId l : g.links_of(n)) {
          NodeId peer = g.other_end(l, n);
          if (!g.is_compute(peer) && g.node_name(peer).rfind("core", 0) == 0)
            uplinks.insert(peer);
        }
        EXPECT_EQ(uplinks.size(),
                  static_cast<std::size_t>(opt.uplinks_per_edge));
      }
    }
  }
}

// ------------------------------------------------------------ determinism

TEST(Synthetic, DeterministicFromSeedAndSensitiveToIt) {
  FatTreeOptions ft;
  ft.cpu_jitter = 0.3;
  ft.seed = 21;
  EXPECT_EQ(format_topology(fat_tree(ft)), format_topology(fat_tree(ft)));
  auto ft2 = ft;
  ft2.seed = 22;
  EXPECT_NE(format_topology(fat_tree(ft)), format_topology(fat_tree(ft2)));

  CampusWanOptions cw;
  cw.seed = 21;
  EXPECT_EQ(format_topology(campus_wan(cw)), format_topology(campus_wan(cw)));
  auto cw2 = cw;
  cw2.seed = 22;
  EXPECT_NE(format_topology(campus_wan(cw)), format_topology(campus_wan(cw2)));

  RandomCoreEdgeOptions ce;
  ce.seed = 21;
  EXPECT_EQ(format_topology(random_core_edge(ce)),
            format_topology(random_core_edge(ce)));
  auto ce2 = ce;
  ce2.seed = 22;
  EXPECT_NE(format_topology(random_core_edge(ce)),
            format_topology(random_core_edge(ce2)));
}

// ------------------------------------------------------------- round-trip

void expect_roundtrips(const TopologyGraph& g, const std::string& what) {
  const std::string text = format_topology(g);
  TopologyGraph parsed;
  ASSERT_NO_THROW(parsed = parse_topology(text)) << what;
  ASSERT_EQ(parsed.node_count(), g.node_count()) << what;
  ASSERT_EQ(parsed.link_count(), g.link_count()) << what;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const auto n = static_cast<NodeId>(i);
    EXPECT_EQ(parsed.node_name(n), g.node_name(n)) << what;
    EXPECT_EQ(parsed.node(n).kind(), g.node(n).kind()) << what;
    EXPECT_TRUE(std::ranges::equal(parsed.tags(n), g.tags(n))) << what;
  }
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    const auto id = static_cast<LinkId>(l);
    EXPECT_EQ(parsed.link_name(id), g.link_name(id)) << what;
  }
  // The serialiser prints 6 significant digits, which is a fixed point:
  // reformatting the parsed graph reproduces the text exactly.
  EXPECT_EQ(format_topology(parsed), text) << what;
}

TEST(Synthetic, TopoFormatRoundTrips) {
  FatTreeOptions ft;
  ft.cpu_jitter = 0.25;
  ft.memory_bytes = 2e9;
  ft.seed = 5;
  expect_roundtrips(fat_tree(ft), "fat_tree");
  CampusWanOptions cw;
  cw.seed = 5;
  expect_roundtrips(campus_wan(cw), "campus_wan");
  RandomCoreEdgeOptions ce;
  ce.seed = 5;
  expect_roundtrips(random_core_edge(ce), "random_core_edge");
  // Explicitly named links ("bottleneck", "gibraltar--suez(ATM)").
  expect_roundtrips(dumbbell(3, 4), "dumbbell");
  expect_roundtrips(testbed(), "testbed");
}

// ------------------------------------------------------------- validation

TEST(Synthetic, RejectsNonsenseOptions) {
  FatTreeOptions ft;
  ft.edge_switches = 0;
  EXPECT_THROW(fat_tree(ft), std::invalid_argument);
  ft = {};
  ft.cpu_jitter = 1.0;
  EXPECT_THROW(fat_tree(ft), std::invalid_argument);
  EXPECT_THROW(fat_tree_for_hosts(0, 48, 3.0), std::invalid_argument);
  EXPECT_THROW(fat_tree_for_hosts(64, 1, 3.0), std::invalid_argument);
  EXPECT_THROW(fat_tree_for_hosts(64, 48, 0.0), std::invalid_argument);
  CampusWanOptions cw;
  cw.wan_latency_max = cw.wan_latency_min / 2;
  EXPECT_THROW(campus_wan(cw), std::invalid_argument);
  cw = {};
  cw.cpu_capacity_min = 0.0;
  EXPECT_THROW(campus_wan(cw), std::invalid_argument);
  RandomCoreEdgeOptions ce;
  ce.uplinks_per_edge = 0;
  EXPECT_THROW(random_core_edge(ce), std::invalid_argument);
  ce = {};
  ce.host_bw_max = ce.host_bw_min / 2;
  EXPECT_THROW(random_core_edge(ce), std::invalid_argument);
}

}  // namespace
}  // namespace netsel::topo
