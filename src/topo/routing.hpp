#pragma once
// Static routing (paper §3.3, "Cycles in network topology"): networks
// typically use static routing, so a fixed path is taken for all
// communication between a pair of nodes. This header is the one place that
// fixes that path. The route from src to dst is the path to dst in src's
// breadth-first tree: a FIFO queue from src, each node's links scanned in
// links_of() order, a node marked when it is enqueued. That is a shortest
// path by hop count, with ties broken toward the links added first; on
// acyclic graphs it is the unique path. Simulated flows (sim::Network),
// Remos flow queries and the selection stack all read this tree, so the
// path the selectors score is the path simulated traffic takes.

#include <vector>

#include "topo/graph.hpp"

namespace netsel::topo {

/// One directional hop of a route: the link and the direction it is
/// crossed in (true = a -> b).
struct Hop {
  LinkId link = kInvalidLink;
  bool forward = true;
  bool operator==(const Hop&) const = default;
};

/// The breadth-first tree grown from one source. Holds per node its parent
/// link and hop depth, and the discovery order. The graph must outlive the
/// tree and stay unmutated while the tree is read.
class BfsTree {
 public:
  /// Grow the tree from `src`. With `link_active` (one entry per link id)
  /// only links whose entry is nonzero are crossed. Throws
  /// std::out_of_range unless 0 <= src < g.node_count().
  BfsTree(const TopologyGraph& g, NodeId src,
          const std::vector<char>* link_active = nullptr);

  /// Reached nodes in discovery order, the source first; every node comes
  /// after its parent.
  const std::vector<NodeId>& order() const { return order_; }
  /// Hops from the source; -1 when `v` is unreached. The accessors below
  /// throw std::out_of_range for an id outside [0, g.node_count()).
  int depth(NodeId v) const { return depth_[check(v)]; }
  bool reached(NodeId v) const { return depth(v) >= 0; }
  /// The link `v` was discovered through; kInvalidLink for the source and
  /// for unreached nodes.
  LinkId parent_link(NodeId v) const { return parent_[check(v)]; }
  /// The path from the source to `dst` in traversal order. Empty when
  /// `dst` is the source or unreached.
  std::vector<Hop> path_to(NodeId dst) const;

 private:
  std::size_t check(NodeId v) const;

  const TopologyGraph* graph_;
  std::vector<LinkId> parent_;
  std::vector<int> depth_;
  std::vector<NodeId> order_;
};

/// The static route from src to dst: BfsTree(g, src).path_to(dst). Empty
/// when src == dst or dst is unreachable; throws std::out_of_range for an
/// id outside [0, g.node_count()).
std::vector<Hop> bfs_path(const TopologyGraph& g, NodeId src, NodeId dst);

/// Every source's tree, kept for repeated route queries on a connected
/// graph.
class RoutingTable {
 public:
  /// Build one BfsTree per source: O(n * (n + e)). Throws
  /// std::invalid_argument if the graph is disconnected (validate() it
  /// first).
  explicit RoutingTable(const TopologyGraph& g);

  /// The route from src to dst, identical to bfs_path(g, src, dst). Empty
  /// when src == dst. Throws std::out_of_range for an id outside
  /// [0, node_count()).
  std::vector<Hop> route(NodeId src, NodeId dst) const {
    return tree(src).path_to(dst);
  }

  /// Hop count (number of links) between src and dst.
  std::size_t hops(NodeId src, NodeId dst) const {
    return static_cast<std::size_t>(tree(src).depth(dst));
  }

 private:
  const BfsTree& tree(NodeId src) const;

  std::vector<BfsTree> trees_;
};

}  // namespace netsel::topo
