#include "topo/generators.hpp"

#include <stdexcept>
#include <string>

namespace netsel::topo {

TopologyGraph testbed() {
  TopologyGraph g;
  NodeId panama = g.add_network("panama");
  NodeId gibraltar = g.add_network("gibraltar");
  NodeId suez = g.add_network("suez");
  g.add_link(panama, gibraltar, k100Mbps, k100Mbps, "panama--gibraltar");
  g.add_link(gibraltar, suez, k155Mbps, k155Mbps, "gibraltar--suez(ATM)");
  auto attach = [&](NodeId router, int first, int last) {
    for (int i = first; i <= last; ++i) {
      NodeId h = g.add_compute("m-" + std::to_string(i), 1.0, {"alpha"});
      g.add_link(router, h, k100Mbps);
    }
  };
  attach(panama, 1, 6);
  attach(gibraltar, 7, 12);
  attach(suez, 13, 18);
  g.validate();
  return g;
}

TopologyGraph star(int hosts, double host_bw) {
  if (hosts < 1) throw std::invalid_argument("star: need at least 1 host");
  TopologyGraph g;
  NodeId sw = g.add_network("sw0");
  for (int i = 0; i < hosts; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    NodeId h = g.add_compute(name);
    g.add_link(sw, h, host_bw);
  }
  g.validate();
  return g;
}

TopologyGraph dumbbell(int left, int right, double host_bw,
                       double bottleneck_bw) {
  if (left < 1 || right < 1)
    throw std::invalid_argument("dumbbell: need hosts on both sides");
  TopologyGraph g;
  NodeId swl = g.add_network("swL");
  NodeId swr = g.add_network("swR");
  g.add_link(swl, swr, bottleneck_bw, bottleneck_bw, "bottleneck");
  for (int i = 0; i < left; ++i) {
    std::string name = "L";
    name += std::to_string(i);
    NodeId h = g.add_compute(name);
    g.add_link(swl, h, host_bw);
  }
  for (int i = 0; i < right; ++i) {
    std::string name = "R";
    name += std::to_string(i);
    NodeId h = g.add_compute(name);
    g.add_link(swr, h, host_bw);
  }
  g.validate();
  return g;
}

TopologyGraph two_level_tree(int switches, int hosts_per_switch,
                             double host_bw, double trunk_bw) {
  if (switches < 1 || hosts_per_switch < 1)
    throw std::invalid_argument("two_level_tree: bad shape");
  TopologyGraph g;
  NodeId root = g.add_network("root");
  for (int s = 0; s < switches; ++s) {
    NodeId sw = g.add_network("sw" + std::to_string(s));
    g.add_link(root, sw, trunk_bw);
    for (int h = 0; h < hosts_per_switch; ++h) {
      std::string name = "h";
      name += std::to_string(s);
      name += '_';
      name += std::to_string(h);
      NodeId host = g.add_compute(name);
      g.add_link(sw, host, host_bw);
    }
  }
  g.validate();
  return g;
}

TopologyGraph random_tree(util::Rng& rng, const RandomTreeOptions& opt) {
  if (opt.compute_nodes < 1)
    throw std::invalid_argument("random_tree: need compute nodes");
  if (opt.hosts_are_leaves && opt.network_nodes < 1)
    throw std::invalid_argument(
        "random_tree: hosts_are_leaves requires a network backbone");
  if (opt.min_bw <= 0.0 || opt.max_bw < opt.min_bw)
    throw std::invalid_argument("random_tree: bad bandwidth range");
  TopologyGraph g;
  auto draw_bw = [&]() { return rng.uniform(opt.min_bw, opt.max_bw); };

  if (opt.hosts_are_leaves) {
    // Grow a random backbone tree over the network nodes, then hang each
    // compute node off a uniformly random backbone node.
    std::vector<NodeId> backbone;
    backbone.reserve(static_cast<std::size_t>(opt.network_nodes));
    for (int i = 0; i < opt.network_nodes; ++i) {
      NodeId s = g.add_network("sw" + std::to_string(i));
      if (!backbone.empty()) {
        NodeId parent = backbone[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(backbone.size()) - 1))];
        g.add_link(parent, s, draw_bw());
      }
      backbone.push_back(s);
    }
    for (int i = 0; i < opt.compute_nodes; ++i) {
      std::string name = "h";
      name += std::to_string(i);
      NodeId h = g.add_compute(name);
      NodeId parent = backbone[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(backbone.size()) - 1))];
      g.add_link(parent, h, draw_bw());
    }
  } else {
    // Random recursive tree over a random interleaving of all nodes.
    int total = opt.compute_nodes + opt.network_nodes;
    int remaining_compute = opt.compute_nodes;
    int remaining_network = opt.network_nodes;
    std::vector<NodeId> added;
    added.reserve(static_cast<std::size_t>(total));
    for (int i = 0; i < total; ++i) {
      bool make_compute =
          remaining_network == 0 ||
          (remaining_compute > 0 &&
           rng.uniform() < static_cast<double>(remaining_compute) /
                               static_cast<double>(remaining_compute +
                                                   remaining_network));
      NodeId id;
      if (make_compute) {
        std::string name = "h";
        name += std::to_string(opt.compute_nodes - remaining_compute);
        id = g.add_compute(name);
        --remaining_compute;
      } else {
        id = g.add_network("sw" + std::to_string(opt.network_nodes -
                                                 remaining_network));
        --remaining_network;
      }
      if (!added.empty()) {
        NodeId parent = added[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(added.size()) - 1))];
        g.add_link(parent, id, draw_bw());
      }
      added.push_back(id);
    }
  }
  g.validate();
  return g;
}

}  // namespace netsel::topo
