#include "topo/subgraph.hpp"

#include <stdexcept>

#include "topo/routing.hpp"

namespace netsel::topo {

NodeId LogicalSubgraph::to_sub(NodeId parent) const {
  if (parent < 0 || static_cast<std::size_t>(parent) >= sub_of_parent_.size())
    return kInvalidNode;
  return sub_of_parent_[static_cast<std::size_t>(parent)];
}

LogicalSubgraph extract_subgraph(const TopologyGraph& parent,
                                 const std::vector<NodeId>& nodes) {
  if (nodes.empty())
    throw std::invalid_argument("extract_subgraph: empty node set");
  for (NodeId n : nodes) {
    if (n < 0 || static_cast<std::size_t>(n) >= parent.node_count())
      throw std::invalid_argument("extract_subgraph: node id out of range");
  }

  // Mark the links and nodes on all pairwise static routes.
  std::vector<char> link_in(parent.link_count(), 0);
  std::vector<char> node_in(parent.node_count(), 0);
  for (NodeId n : nodes) node_in[static_cast<std::size_t>(n)] = 1;
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const BfsTree tree(parent, nodes[i]);
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      // An unreachable pair has an empty path and contributes nothing.
      for (const Hop& h : tree.path_to(nodes[j])) {
        const Link& lk = parent.link(h.link);
        link_in[static_cast<std::size_t>(h.link)] = 1;
        node_in[static_cast<std::size_t>(lk.a)] = 1;
        node_in[static_cast<std::size_t>(lk.b)] = 1;
      }
    }
  }

  // Rebuild the pruned graph in parent id order.
  LogicalSubgraph sub;
  sub.sub_of_parent_.assign(parent.node_count(), kInvalidNode);
  for (std::size_t i = 0; i < parent.node_count(); ++i) {
    if (!node_in[i]) continue;
    const Node& n = parent.node(static_cast<NodeId>(i));
    const std::string_view name = parent.node_name(static_cast<NodeId>(i));
    NodeId id;
    if (n.kind() == NodeKind::Compute) {
      const auto tags = parent.tags(static_cast<NodeId>(i));
      id = sub.graph.add_compute(name, n.cpu_capacity,
                                 {tags.begin(), tags.end()});
      if (n.memory_bytes > 0.0) sub.graph.set_memory(id, n.memory_bytes);
    } else {
      id = sub.graph.add_network(name);
    }
    sub.sub_of_parent_[i] = id;
    sub.parent_node.push_back(static_cast<NodeId>(i));
  }
  for (std::size_t l = 0; l < parent.link_count(); ++l) {
    if (!link_in[l]) continue;
    const Link& lk = parent.link(static_cast<LinkId>(l));
    TopologyGraph::LinkSpec spec;
    spec.capacity_ab = lk.capacity_ab;
    spec.capacity_ba = lk.capacity_ba;
    spec.latency = lk.latency;
    // A derived name re-derives from the same endpoint names.
    spec.name = parent.explicit_link_name(static_cast<LinkId>(l));
    sub.graph.add_link(sub.sub_of_parent_[static_cast<std::size_t>(lk.a)],
                       sub.sub_of_parent_[static_cast<std::size_t>(lk.b)],
                       std::move(spec));
    sub.parent_link.push_back(static_cast<LinkId>(l));
  }
  return sub;
}

}  // namespace netsel::topo
