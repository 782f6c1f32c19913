#include "topo/connectivity.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace netsel::topo {

Components connected_components(const TopologyGraph& g,
                                const std::vector<char>& link_active) {
  if (link_active.size() != g.link_count())
    throw std::invalid_argument("connected_components: mask size mismatch");
  const auto adj = g.adjacency();
  const auto links = g.links();
  Components result;
  result.comp_of.assign(g.node_count(), -1);
  std::vector<NodeId> stack;
  for (std::size_t start = 0; start < g.node_count(); ++start) {
    if (result.comp_of[start] != -1) continue;
    int c = result.count++;
    result.compute_count.push_back(0);
    result.node_count.push_back(0);
    stack.push_back(static_cast<NodeId>(start));
    result.comp_of[start] = c;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      const auto iu = static_cast<std::size_t>(u);
      stack.pop_back();
      result.node_count[static_cast<std::size_t>(c)]++;
      if (g.is_compute(u)) result.compute_count[static_cast<std::size_t>(c)]++;
      for (auto e = adj.start[iu]; e < adj.start[iu + 1]; ++e) {
        const LinkId l = adj.link[static_cast<std::size_t>(e)];
        if (!link_active[static_cast<std::size_t>(l)]) continue;
        const NodeId v = links[static_cast<std::size_t>(l)].other(u);
        if (result.comp_of[static_cast<std::size_t>(v)] == -1) {
          result.comp_of[static_cast<std::size_t>(v)] = c;
          stack.push_back(v);
        }
      }
    }
  }
  return result;
}

Components connected_components(const TopologyGraph& g) {
  std::vector<char> all(g.link_count(), 1);
  return connected_components(g, all);
}

EligibleUnionFind::EligibleUnionFind(const std::vector<char>& eligible)
    : parent_(eligible.size()),
      size_(eligible.size(), 1),
      eligible_(eligible.size()) {
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    parent_[i] = static_cast<NodeId>(i);
    eligible_[i] = eligible[i] ? 1 : 0;
    if (eligible_[i] > max_eligible_) max_eligible_ = eligible_[i];
  }
}

NodeId EligibleUnionFind::find(NodeId n) {
  // Path halving.
  while (parent_[idx(n)] != n) {
    parent_[idx(n)] = parent_[idx(parent_[idx(n)])];
    n = parent_[idx(n)];
  }
  return n;
}

NodeId EligibleUnionFind::unite(NodeId a, NodeId b) {
  NodeId ra = find(a);
  NodeId rb = find(b);
  if (ra == rb) return ra;
  if (size_[idx(ra)] < size_[idx(rb)]) std::swap(ra, rb);
  parent_[idx(rb)] = ra;
  size_[idx(ra)] += size_[idx(rb)];
  eligible_[idx(ra)] += eligible_[idx(rb)];
  if (eligible_[idx(ra)] > max_eligible_) max_eligible_ = eligible_[idx(ra)];
  return ra;
}

BottleneckRow bottleneck_row(const TopologyGraph& g, NodeId src,
                             std::span<const double> weight,
                             std::span<const double> weight2) {
  if (weight.size() != g.link_count())
    throw std::invalid_argument("bottleneck_row: weight size mismatch");
  if (!weight2.empty() && weight2.size() != g.link_count())
    throw std::invalid_argument("bottleneck_row: weight2 size mismatch");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = g.node_count();
  const auto adj = g.adjacency();
  const auto links = g.links();
  BottleneckRow row;
  row.bottleneck.assign(n, 0.0);
  if (!weight2.empty()) row.bottleneck2.assign(n, 0.0);
  row.latency.assign(n, 0.0);
  row.reached.assign(n, 0);
  row.bottleneck[static_cast<std::size_t>(src)] = kInf;
  if (!weight2.empty()) row.bottleneck2[static_cast<std::size_t>(src)] = kInf;
  row.reached[static_cast<std::size_t>(src)] = 1;
  // The FIFO order and links_of() iteration order below must match
  // select::bfs_path exactly: they define the same BFS tree, hence the same
  // deterministic paths on cyclic graphs. A node enters the FIFO at most
  // once, so it never needs popping: a head index walks it.
  std::vector<NodeId> fifo;
  fifo.reserve(n);
  fifo.push_back(src);
  for (std::size_t head = 0; head < fifo.size(); ++head) {
    const NodeId u = fifo[head];
    const auto iu = static_cast<std::size_t>(u);
    for (auto e = adj.start[iu]; e < adj.start[iu + 1]; ++e) {
      const LinkId l = adj.link[static_cast<std::size_t>(e)];
      const Link& lk = links[static_cast<std::size_t>(l)];
      const NodeId v = lk.other(u);
      const auto iv = static_cast<std::size_t>(v);
      if (row.reached[iv]) continue;
      row.reached[iv] = 1;
      const auto il = static_cast<std::size_t>(l);
      row.bottleneck[iv] = std::min(row.bottleneck[iu], weight[il]);
      if (!weight2.empty())
        row.bottleneck2[iv] = std::min(row.bottleneck2[iu], weight2[il]);
      row.latency[iv] = row.latency[iu] + lk.latency;
      fifo.push_back(v);
    }
  }
  return row;
}

}  // namespace netsel::topo
