#include "topo/routing.hpp"

#include <algorithm>
#include <stdexcept>

namespace netsel::topo {

namespace {

std::size_t require_node(std::size_t node_count, NodeId v) {
  if (v < 0 || static_cast<std::size_t>(v) >= node_count)
    throw std::out_of_range("routing: node id out of range");
  return static_cast<std::size_t>(v);
}

}  // namespace

BfsTree::BfsTree(const TopologyGraph& g, NodeId src,
                 const std::vector<char>* link_active)
    : graph_(&g) {
  const std::size_t n = g.node_count();
  const std::size_t is = require_node(n, src);
  if (link_active && link_active->size() != g.link_count())
    throw std::invalid_argument("BfsTree: link mask size mismatch");
  parent_.assign(n, kInvalidLink);
  depth_.assign(n, -1);
  order_.reserve(n);
  const auto adj = g.adjacency();
  const auto links = g.links();
  // Every node enters the FIFO once, when it is marked, so the FIFO is the
  // discovery order itself: a head index walks it.
  depth_[is] = 0;
  order_.push_back(src);
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const NodeId u = order_[head];
    const auto iu = static_cast<std::size_t>(u);
    for (auto e = adj.start[iu]; e < adj.start[iu + 1]; ++e) {
      const LinkId l = adj.link[static_cast<std::size_t>(e)];
      const auto il = static_cast<std::size_t>(l);
      if (link_active && !(*link_active)[il]) continue;
      const NodeId v = links[il].other(u);
      const auto iv = static_cast<std::size_t>(v);
      if (depth_[iv] >= 0) continue;
      depth_[iv] = depth_[iu] + 1;
      parent_[iv] = l;
      order_.push_back(v);
    }
  }
}

std::size_t BfsTree::check(NodeId v) const {
  return require_node(depth_.size(), v);
}

std::vector<Hop> BfsTree::path_to(NodeId dst) const {
  std::vector<Hop> path(static_cast<std::size_t>(std::max(depth(dst), 0)));
  NodeId v = dst;
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    const LinkId l = parent_[static_cast<std::size_t>(v)];
    const Link& lk = graph_->link(l);
    // The hop enters v, so it runs a -> b exactly when v is b.
    *it = Hop{l, lk.b == v};
    v = lk.other(v);
  }
  return path;
}

std::vector<Hop> bfs_path(const TopologyGraph& g, NodeId src, NodeId dst) {
  return BfsTree(g, src).path_to(dst);
}

RoutingTable::RoutingTable(const TopologyGraph& g) {
  const std::size_t n = g.node_count();
  trees_.reserve(n);
  for (std::size_t src = 0; src < n; ++src) {
    trees_.emplace_back(g, static_cast<NodeId>(src));
    if (trees_.back().order().size() != n)
      throw std::invalid_argument("RoutingTable: graph is disconnected");
  }
}

const BfsTree& RoutingTable::tree(NodeId src) const {
  return trees_[require_node(trees_.size(), src)];
}

}  // namespace netsel::topo
