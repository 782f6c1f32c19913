#include "topo/parse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "topo/generators.hpp"

namespace netsel::topo {
namespace {

constexpr const char* kSample = R"(
# A miniature testbed
node panama router
node suez switch
node m-1 compute capacity=1.0 tags=alpha
node m-2 compute capacity=2.5 tags=alpha,big
node m-3 compute            # defaults

link m-1 panama 100Mbps latency=0.05ms
link m-2 panama 100Mbps
link m-3 suez 10Mbps name=slowlink
link panama suez 155Mbps/55Mbps latency=1ms
)";

TEST(ParseBandwidth, Units) {
  EXPECT_DOUBLE_EQ(parse_bandwidth("100Mbps"), 100e6);
  EXPECT_DOUBLE_EQ(parse_bandwidth("2.5Gbps"), 2.5e9);
  EXPECT_DOUBLE_EQ(parse_bandwidth("64Kbps"), 64e3);
  EXPECT_DOUBLE_EQ(parse_bandwidth("800bps"), 800.0);
}

TEST(ParseBandwidth, Rejections) {
  EXPECT_THROW(parse_bandwidth("100"), ParseError);
  EXPECT_THROW(parse_bandwidth("fastMbps"), ParseError);
  EXPECT_THROW(parse_bandwidth("0Mbps"), ParseError);
  EXPECT_THROW(parse_bandwidth("-5Mbps"), ParseError);
}

TEST(ParseBandwidth, RejectsNonFinite) {
  EXPECT_THROW(parse_bandwidth("nanMbps"), ParseError);
  EXPECT_THROW(parse_bandwidth("infGbps"), ParseError);
  EXPECT_THROW(parse_bandwidth("infinitybps"), ParseError);
  EXPECT_THROW(parse_bandwidth("-nanKbps"), ParseError);
  // Finite digits whose scaled value overflows.
  EXPECT_THROW(parse_bandwidth("1e300Gbps"), ParseError);
}

TEST(ParseDuration, Units) {
  EXPECT_DOUBLE_EQ(parse_duration("1.5s"), 1.5);
  EXPECT_DOUBLE_EQ(parse_duration("200ms"), 0.2);
  EXPECT_DOUBLE_EQ(parse_duration("50us"), 50e-6);
}

TEST(ParseDuration, Rejections) {
  EXPECT_THROW(parse_duration("10"), ParseError);
  EXPECT_THROW(parse_duration("-1ms"), ParseError);
}

TEST(ParseDuration, RejectsNonFinite) {
  EXPECT_THROW(parse_duration("nanms"), ParseError);
  EXPECT_THROW(parse_duration("infs"), ParseError);
}

TEST(ParseBytes, RejectsNonFinite) {
  EXPECT_THROW(parse_bytes("nanGB"), ParseError);
  EXPECT_THROW(parse_bytes("infMB"), ParseError);
  EXPECT_THROW(parse_bytes("1e305GB"), ParseError);
  EXPECT_DOUBLE_EQ(parse_bytes("2GB"), 2e9);
}

TEST(ParseTopology, RejectsNonFiniteNumbersWithTheirLine) {
  const std::string head = "node a compute\nnode b compute\n";
  for (const char* bad :
       {"link a b nanMbps", "link a b 10Mbps/infMbps",
        "link a b 10Mbps latency=nanms", "node c compute capacity=nan",
        "node c compute capacity=inf", "node c compute memory=infGB"}) {
    try {
      parse_topology(head + bad + "\n");
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 3) << bad;
    }
  }
}

TEST(ParseTopology, SampleParses) {
  auto g = parse_topology(kSample);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.compute_node_count(), 3u);
  EXPECT_EQ(g.link_count(), 4u);
  auto m2 = g.find_node("m-2");
  ASSERT_TRUE(m2.has_value());
  EXPECT_DOUBLE_EQ(g.node(*m2).cpu_capacity, 2.5);
  EXPECT_TRUE(g.has_tag(*m2, "big"));
  EXPECT_TRUE(g.has_tag(*m2, "alpha"));
  // Asymmetric trunk with latency.
  const Link& trunk = g.link(3);
  EXPECT_DOUBLE_EQ(trunk.capacity_ab, 155e6);
  EXPECT_DOUBLE_EQ(trunk.capacity_ba, 55e6);
  EXPECT_DOUBLE_EQ(trunk.latency, 1e-3);
  // Named link.
  EXPECT_EQ(g.link_name(2), "slowlink");
  // Latency parsed on the first link.
  EXPECT_DOUBLE_EQ(g.link(0).latency, 0.05e-3);
}

TEST(ParseTopology, CommentsAndBlankLines) {
  auto g = parse_topology(
      "# leading comment\n\nnode a compute\nnode b compute\n"
      "link a b 10Mbps # trailing comment\n");
  EXPECT_EQ(g.node_count(), 2u);
}

TEST(ParseTopology, ErrorsCarryLineNumbers) {
  try {
    parse_topology("node a compute\nnode b compute\nlink a c 10Mbps\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("unknown node 'c'"),
              std::string::npos);
  }
}

TEST(ParseTopology, Rejections) {
  EXPECT_THROW(parse_topology("frobnicate x\n"), ParseError);
  EXPECT_THROW(parse_topology("node a dishwasher\n"), ParseError);
  EXPECT_THROW(parse_topology("node a compute bogus\n"), ParseError);
  EXPECT_THROW(parse_topology("node a compute shoes=2\n"), ParseError);
  EXPECT_THROW(parse_topology("node a router extra\n"), ParseError);
  EXPECT_THROW(parse_topology("node a compute\nnode b compute\n"
                              "link a b 1Mbps/2Mbps/3Mbps\n"),
               ParseError);
  EXPECT_THROW(parse_topology("node a compute\nnode b compute\n"
                              "link a b 1Mbps color=red\n"),
               ParseError);
  // Graph-level violations surface from validate().
  EXPECT_THROW(parse_topology("node a compute\nnode b compute\n"),
               std::invalid_argument);
}

TEST(ParseTopology, RoundTripsThroughFormat) {
  auto g1 = parse_topology(kSample);
  std::string text = format_topology(g1);
  auto g2 = parse_topology(text);
  ASSERT_EQ(g1.node_count(), g2.node_count());
  ASSERT_EQ(g1.link_count(), g2.link_count());
  for (std::size_t i = 0; i < g1.node_count(); ++i) {
    auto id = static_cast<NodeId>(i);
    EXPECT_EQ(g1.node_name(id), g2.node_name(id));
    EXPECT_EQ(g1.node(id).kind(), g2.node(id).kind());
    EXPECT_DOUBLE_EQ(g1.node(id).cpu_capacity, g2.node(id).cpu_capacity);
    EXPECT_TRUE(std::ranges::equal(g1.tags(id), g2.tags(id)));
  }
  for (std::size_t l = 0; l < g1.link_count(); ++l) {
    auto id = static_cast<LinkId>(l);
    EXPECT_EQ(g1.link_name(id), g2.link_name(id));
    EXPECT_DOUBLE_EQ(g1.link(id).capacity_ab, g2.link(id).capacity_ab);
    EXPECT_DOUBLE_EQ(g1.link(id).capacity_ba, g2.link(id).capacity_ba);
    EXPECT_NEAR(g1.link(id).latency, g2.link(id).latency, 1e-12);
  }
}

TEST(ParseTopology, TestbedRoundTrips) {
  auto g1 = testbed();
  auto g2 = parse_topology(format_topology(g1));
  EXPECT_EQ(g2.node_count(), 21u);
  EXPECT_EQ(g2.link_count(), 20u);
  EXPECT_TRUE(g2.find_node("gibraltar").has_value());
}

}  // namespace
}  // namespace netsel::topo
