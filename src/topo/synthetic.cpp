#include "topo/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace netsel::topo {

namespace {

double draw_capacity(util::Rng& rng, double lo, double hi) {
  return lo == hi ? lo : rng.uniform(lo, hi);
}

}  // namespace

TopologyGraph fat_tree(const FatTreeOptions& opt) {
  if (opt.edge_switches < 1 || opt.hosts_per_edge < 1 || opt.core_switches < 1)
    throw std::invalid_argument("fat_tree: counts must be >= 1");
  if (opt.host_bw <= 0.0 || opt.uplink_bw <= 0.0)
    throw std::invalid_argument("fat_tree: bandwidths must be > 0");
  if (opt.cpu_jitter < 0.0 || opt.cpu_jitter >= 1.0)
    throw std::invalid_argument("fat_tree: cpu_jitter must be in [0, 1)");
  if (opt.host_latency < 0.0 || opt.uplink_latency < 0.0)
    throw std::invalid_argument("fat_tree: latencies must be >= 0");
  util::Rng rng(opt.seed);
  TopologyGraph g;
  const auto edges = static_cast<std::size_t>(opt.edge_switches);
  const auto core_count = static_cast<std::size_t>(opt.core_switches);
  const auto per_edge = static_cast<std::size_t>(opt.hosts_per_edge);
  g.reserve(core_count + edges * (1 + per_edge),
            edges * (core_count + per_edge));
  std::vector<NodeId> cores;
  cores.reserve(core_count);
  for (int c = 0; c < opt.core_switches; ++c)
    cores.push_back(g.add_network("core" + std::to_string(c)));
  for (int e = 0; e < opt.edge_switches; ++e) {
    NodeId sw = g.add_network("edge" + std::to_string(e));
    for (NodeId core : cores) {
      TopologyGraph::LinkSpec spec;
      spec.capacity_ab = opt.uplink_bw;
      spec.latency = opt.uplink_latency;
      g.add_link(sw, core, std::move(spec));
    }
    for (int h = 0; h < opt.hosts_per_edge; ++h) {
      double capacity = 1.0;
      if (opt.cpu_jitter > 0.0)
        capacity = rng.uniform(1.0 - opt.cpu_jitter, 1.0 + opt.cpu_jitter);
      NodeId host = g.add_compute(
          "h" + std::to_string(e) + "-" + std::to_string(h), capacity);
      if (opt.memory_bytes > 0.0) g.set_memory(host, opt.memory_bytes);
      TopologyGraph::LinkSpec spec;
      spec.capacity_ab = opt.host_bw;
      spec.latency = opt.host_latency;
      g.add_link(sw, host, std::move(spec));
    }
  }
  g.validate();
  return g;
}

FatTreeOptions fat_tree_for_hosts(int hosts, int switch_ports,
                                  double oversubscription,
                                  std::uint64_t seed) {
  if (hosts < 1) throw std::invalid_argument("fat_tree_for_hosts: hosts < 1");
  if (switch_ports < 2)
    throw std::invalid_argument("fat_tree_for_hosts: need >= 2 ports");
  if (oversubscription <= 0.0)
    throw std::invalid_argument(
        "fat_tree_for_hosts: oversubscription must be > 0");
  // Split the edge switch's ports between downlinks (hosts) and uplinks
  // (one per core switch) at the requested downlink : uplink ratio.
  int down = static_cast<int>(std::lround(
      static_cast<double>(switch_ports) * oversubscription /
      (oversubscription + 1.0)));
  if (down < 1) down = 1;
  if (down > switch_ports - 1) down = switch_ports - 1;
  FatTreeOptions opt;
  opt.hosts_per_edge = down;
  opt.core_switches = switch_ports - down;
  opt.edge_switches = (hosts + down - 1) / down;
  opt.seed = seed;
  return opt;
}

TopologyGraph three_level_fat_tree(const ThreeLevelFatTreeOptions& opt) {
  if (opt.pods < 1 || opt.edge_per_pod < 1 || opt.hosts_per_edge < 1 ||
      opt.agg_per_pod < 1)
    throw std::invalid_argument("three_level_fat_tree: counts must be >= 1");
  if (opt.host_bw <= 0.0 || opt.uplink_bw <= 0.0 || opt.core_bw <= 0.0)
    throw std::invalid_argument(
        "three_level_fat_tree: bandwidths must be > 0");
  if (opt.cpu_jitter < 0.0 || opt.cpu_jitter >= 1.0)
    throw std::invalid_argument(
        "three_level_fat_tree: cpu_jitter must be in [0, 1)");
  if (opt.host_latency < 0.0 || opt.uplink_latency < 0.0 ||
      opt.core_latency < 0.0)
    throw std::invalid_argument(
        "three_level_fat_tree: latencies must be >= 0");
  util::Rng rng(opt.seed);
  TopologyGraph g;
  const int u = opt.agg_per_pod;
  const auto planes = static_cast<std::size_t>(u);
  const auto pods = static_cast<std::size_t>(opt.pods);
  const auto edges = static_cast<std::size_t>(opt.edge_per_pod);
  const auto per_edge = static_cast<std::size_t>(opt.hosts_per_edge);
  g.reserve(planes * planes + pods * (planes + edges * (1 + per_edge)),
            pods * (planes * planes + edges * (planes + per_edge)));
  std::vector<NodeId> cores;
  cores.reserve(planes * planes);
  for (int c = 0; c < u * u; ++c)
    cores.push_back(g.add_network("core" + std::to_string(c)));
  std::vector<NodeId> aggs(static_cast<std::size_t>(u));
  for (int p = 0; p < opt.pods; ++p) {
    const std::string pod = "p" + std::to_string(p);
    for (int j = 0; j < u; ++j) {
      NodeId agg = g.add_network(pod + "-agg" + std::to_string(j));
      // Plane j: this agg position uplinks to core group j in every pod.
      for (int k = 0; k < u; ++k) {
        TopologyGraph::LinkSpec spec;
        spec.capacity_ab = opt.core_bw;
        spec.latency = opt.core_latency;
        g.add_link(agg, cores[static_cast<std::size_t>(j * u + k)],
                   std::move(spec));
      }
      aggs[static_cast<std::size_t>(j)] = agg;
    }
    for (int e = 0; e < opt.edge_per_pod; ++e) {
      NodeId sw = g.add_network(pod + "-edge" + std::to_string(e));
      for (int j = 0; j < u; ++j) {
        TopologyGraph::LinkSpec spec;
        spec.capacity_ab = opt.uplink_bw;
        spec.latency = opt.uplink_latency;
        g.add_link(sw, aggs[static_cast<std::size_t>(j)], std::move(spec));
      }
      for (int h = 0; h < opt.hosts_per_edge; ++h) {
        double capacity = 1.0;
        if (opt.cpu_jitter > 0.0)
          capacity = rng.uniform(1.0 - opt.cpu_jitter, 1.0 + opt.cpu_jitter);
        NodeId host =
            g.add_compute(pod + "-e" + std::to_string(e) + "-h" +
                              std::to_string(h),
                          capacity);
        if (opt.memory_bytes > 0.0) g.set_memory(host, opt.memory_bytes);
        TopologyGraph::LinkSpec spec;
        spec.capacity_ab = opt.host_bw;
        spec.latency = opt.host_latency;
        g.add_link(sw, host, std::move(spec));
      }
    }
  }
  g.validate();
  return g;
}

ThreeLevelFatTreeOptions three_level_fat_tree_for_hosts(
    long long hosts, int switch_ports, double oversubscription,
    int director_ports, std::uint64_t seed) {
  if (hosts < 1)
    throw std::invalid_argument("three_level_fat_tree_for_hosts: hosts < 1");
  if (switch_ports < 2)
    throw std::invalid_argument(
        "three_level_fat_tree_for_hosts: need >= 2 ports");
  if (oversubscription <= 0.0)
    throw std::invalid_argument(
        "three_level_fat_tree_for_hosts: oversubscription must be > 0");
  if (director_ports < 1)
    throw std::invalid_argument(
        "three_level_fat_tree_for_hosts: director_ports < 1");
  int down = static_cast<int>(std::lround(
      static_cast<double>(switch_ports) * oversubscription /
      (oversubscription + 1.0)));
  if (down < 1) down = 1;
  if (down > switch_ports - 1) down = switch_ports - 1;
  ThreeLevelFatTreeOptions opt;
  opt.hosts_per_edge = down;
  opt.agg_per_pod = switch_ports - down;
  // A pod's aggregation switches fan their downlink ports across the pod's
  // edge switches, so a pod holds d edge switches = d^2 hosts.
  opt.edge_per_pod = down;
  const long long hosts_per_pod =
      static_cast<long long>(down) * static_cast<long long>(down);
  const long long pods = (hosts + hosts_per_pod - 1) / hosts_per_pod;
  if (pods > static_cast<long long>(director_ports))
    throw std::invalid_argument(
        "three_level_fat_tree_for_hosts: pod count exceeds director ports — "
        "use more switch ports or higher oversubscription");
  opt.pods = static_cast<int>(pods);
  opt.seed = seed;
  return opt;
}

TopologyGraph campus_wan(const CampusWanOptions& opt) {
  if (opt.campuses < 1 || opt.buildings_per_campus < 1 ||
      opt.hosts_per_building < 1)
    throw std::invalid_argument("campus_wan: counts must be >= 1");
  if (opt.host_bw <= 0.0 || opt.building_bw <= 0.0 || opt.wan_bw <= 0.0)
    throw std::invalid_argument("campus_wan: bandwidths must be > 0");
  if (opt.wan_latency_min < 0.0 || opt.wan_latency_max < opt.wan_latency_min)
    throw std::invalid_argument("campus_wan: bad WAN latency range");
  if (opt.cpu_capacity_min <= 0.0 ||
      opt.cpu_capacity_max < opt.cpu_capacity_min)
    throw std::invalid_argument("campus_wan: bad capacity range");
  util::Rng rng(opt.seed);
  TopologyGraph g;
  // One link per non-core node: every node but the WAN core hangs off its
  // parent.
  const std::size_t below_core =
      static_cast<std::size_t>(opt.campuses) *
      (1 + static_cast<std::size_t>(opt.buildings_per_campus) *
               (1 + static_cast<std::size_t>(opt.hosts_per_building)));
  g.reserve(1 + below_core, below_core);
  NodeId core = g.add_network("wan-core");
  for (int c = 0; c < opt.campuses; ++c) {
    const std::string campus = "c" + std::to_string(c);
    NodeId gw = g.add_network(campus + "-gw");
    TopologyGraph::LinkSpec trunk;
    trunk.capacity_ab = opt.wan_bw;
    trunk.latency = opt.wan_latency_min == opt.wan_latency_max
                        ? opt.wan_latency_min
                        : rng.uniform(opt.wan_latency_min, opt.wan_latency_max);
    g.add_link(core, gw, std::move(trunk));
    for (int b = 0; b < opt.buildings_per_campus; ++b) {
      const std::string building = campus + "-b" + std::to_string(b);
      NodeId sw = g.add_network(building);
      TopologyGraph::LinkSpec riser;
      riser.capacity_ab = opt.building_bw;
      riser.latency = 50e-6;
      g.add_link(gw, sw, std::move(riser));
      for (int h = 0; h < opt.hosts_per_building; ++h) {
        double capacity =
            draw_capacity(rng, opt.cpu_capacity_min, opt.cpu_capacity_max);
        NodeId host = g.add_compute(building + "-h" + std::to_string(h),
                                    capacity, {"campus" + std::to_string(c)});
        if (opt.memory_scale > 0.0) {
          static constexpr double kSizes[] = {512e6, 1e9, 2e9};
          g.set_memory(host,
                       kSizes[rng.uniform_int(0, 2)] * opt.memory_scale);
        }
        TopologyGraph::LinkSpec drop;
        drop.capacity_ab = opt.host_bw;
        drop.latency = 5e-6;
        g.add_link(sw, host, std::move(drop));
      }
    }
  }
  g.validate();
  return g;
}

TopologyGraph random_core_edge(const RandomCoreEdgeOptions& opt) {
  if (opt.core_switches < 1 || opt.edge_switches < 1 || opt.hosts < 1)
    throw std::invalid_argument("random_core_edge: counts must be >= 1");
  if (opt.uplinks_per_edge < 1)
    throw std::invalid_argument("random_core_edge: uplinks_per_edge < 1");
  if (opt.core_bw_min <= 0.0 || opt.core_bw_max < opt.core_bw_min ||
      opt.host_bw_min <= 0.0 || opt.host_bw_max < opt.host_bw_min ||
      opt.uplink_bw <= 0.0)
    throw std::invalid_argument("random_core_edge: bad bandwidth range");
  if (opt.extra_core_links < 0.0)
    throw std::invalid_argument("random_core_edge: extra_core_links < 0");
  util::Rng rng(opt.seed);
  TopologyGraph g;
  const int chords = static_cast<int>(opt.extra_core_links *
                                      static_cast<double>(opt.core_switches));
  const int uplinks = std::min(opt.uplinks_per_edge, opt.core_switches);
  // The chord count is an upper bound: rejection sampling may add fewer.
  g.reserve(static_cast<std::size_t>(opt.core_switches) +
                static_cast<std::size_t>(opt.edge_switches) +
                static_cast<std::size_t>(opt.hosts),
            static_cast<std::size_t>(opt.core_switches) - 1 +
                static_cast<std::size_t>(chords) +
                static_cast<std::size_t>(opt.edge_switches) *
                    static_cast<std::size_t>(uplinks) +
                static_cast<std::size_t>(opt.hosts));

  // Random spanning tree over the core (each switch joins a uniformly
  // random earlier one), then chord links for redundancy/cycles.
  std::vector<NodeId> cores;
  cores.reserve(static_cast<std::size_t>(opt.core_switches));
  for (int c = 0; c < opt.core_switches; ++c) {
    NodeId sw = g.add_network("core" + std::to_string(c));
    if (!cores.empty()) {
      NodeId parent = cores[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(cores.size()) - 1))];
      g.add_link(parent, sw,
                 draw_capacity(rng, opt.core_bw_min, opt.core_bw_max));
    }
    cores.push_back(sw);
  }
  if (chords > 0 && opt.core_switches >= 2) {
    std::vector<char> linked(cores.size() * cores.size(), 0);
    for (std::size_t l = 0; l < g.link_count(); ++l) {
      const Link& lk = g.link(static_cast<LinkId>(l));
      if (lk.a < static_cast<NodeId>(cores.size()) &&
          lk.b < static_cast<NodeId>(cores.size())) {
        linked[static_cast<std::size_t>(lk.a) * cores.size() +
               static_cast<std::size_t>(lk.b)] = 1;
        linked[static_cast<std::size_t>(lk.b) * cores.size() +
               static_cast<std::size_t>(lk.a)] = 1;
      }
    }
    // Bounded rejection sampling keeps the build deterministic and finite
    // even when the requested chord count exceeds the free pairs.
    int added = 0;
    for (int attempt = 0; attempt < 20 * chords && added < chords; ++attempt) {
      auto a = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cores.size()) - 1));
      auto b = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cores.size()) - 1));
      if (a == b || linked[a * cores.size() + b]) continue;
      linked[a * cores.size() + b] = 1;
      linked[b * cores.size() + a] = 1;
      g.add_link(cores[a], cores[b],
                 draw_capacity(rng, opt.core_bw_min, opt.core_bw_max));
      ++added;
    }
  }

  // Edge switches multi-home to distinct random core switches (partial
  // Fisher-Yates over the core ids).
  std::vector<NodeId> deck = cores;
  std::vector<NodeId> edges;
  edges.reserve(static_cast<std::size_t>(opt.edge_switches));
  for (int e = 0; e < opt.edge_switches; ++e) {
    NodeId sw = g.add_network("edge" + std::to_string(e));
    for (int u = 0; u < uplinks; ++u) {
      auto pick = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(u),
          static_cast<std::int64_t>(deck.size()) - 1));
      std::swap(deck[static_cast<std::size_t>(u)], deck[pick]);
      g.add_link(sw, deck[static_cast<std::size_t>(u)], opt.uplink_bw);
    }
    edges.push_back(sw);
  }

  for (int h = 0; h < opt.hosts; ++h) {
    NodeId host = g.add_compute("h" + std::to_string(h));
    NodeId parent = edges[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(edges.size()) - 1))];
    g.add_link(parent, host,
               draw_capacity(rng, opt.host_bw_min, opt.host_bw_max));
  }
  g.validate();
  return g;
}

}  // namespace netsel::topo
