#include "select/objective.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "select/context.hpp"
#include "topo/routing.hpp"

namespace netsel::select {

std::vector<topo::LinkId> steiner_links(const topo::TopologyGraph& g,
                                        const std::vector<char>& link_active,
                                        const std::vector<topo::NodeId>& nodes) {
  std::vector<char> in_union(g.link_count(), 0);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const topo::BfsTree tree(g, nodes[i], &link_active);
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      for (const topo::Hop& h : tree.path_to(nodes[j]))
        in_union[static_cast<std::size_t>(h.link)] = 1;
    }
  }
  std::vector<topo::LinkId> out;
  for (std::size_t l = 0; l < in_union.size(); ++l)
    if (in_union[l]) out.push_back(static_cast<topo::LinkId>(l));
  return out;
}

SetEvaluation evaluate_set(const SelectionContext& ctx,
                           const std::vector<topo::NodeId>& nodes,
                           const SelectionOptions& opt) {
  const auto& snap = ctx.snapshot();
  const auto& g = ctx.graph();
  SetEvaluation ev;
  ev.connected = true;
  ev.min_cpu = std::numeric_limits<double>::infinity();
  ev.min_pair_bw = std::numeric_limits<double>::infinity();
  ev.min_pair_bw_fraction = std::numeric_limits<double>::infinity();
  if (nodes.empty()) throw std::invalid_argument("evaluate_set: empty set");
  for (topo::NodeId n : nodes) {
    if (!g.is_compute(n))
      throw std::invalid_argument("evaluate_set: non-compute node in set");
    ev.min_cpu = std::min(ev.min_cpu, node_cpu(snap, n, opt));
  }
  if (nodes.size() == 1) {
    // No pairs: report the node's NIC availability, per figure (see
    // SetEvaluation::min_pair_bw).
    double nic_bw = 0.0;
    double nic_frac = 0.0;
    for (topo::LinkId l : g.links_of(nodes[0])) {
      nic_bw = std::max(nic_bw, snap.bw(l));
      nic_frac = std::max(nic_frac, link_fraction(snap, l, opt));
    }
    ev.min_pair_bw = nic_bw;
    ev.min_pair_bw_fraction = nic_frac;
  } else {
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
      std::optional<SelectionContext::PairRow> row;
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        if (nodes[i] == nodes[j]) continue;
        if (!row) row = ctx.pair_row(nodes[i]);
        const SelectionContext::PairValue p = row->at(nodes[j]);
        if (!p.reached) {
          ev.connected = false;
          ev.min_pair_bw = 0.0;
          ev.min_pair_bw_fraction = 0.0;
          continue;
        }
        ev.min_pair_bw = std::min(ev.min_pair_bw, p.bottleneck);
        ev.min_pair_bw_fraction = std::min(
            ev.min_pair_bw_fraction, SelectionContext::row_fraction(p, opt));
        ev.max_pair_latency = std::max(ev.max_pair_latency, p.latency);
      }
    }
  }
  ev.balanced = std::min(ev.min_cpu / opt.cpu_priority,
                         ev.min_pair_bw_fraction / opt.bw_priority);
  return ev;
}

SetEvaluation evaluate_set(const remos::NetworkSnapshot& snap,
                           const std::vector<topo::NodeId>& nodes,
                           const SelectionOptions& opt) {
  SelectionContext ctx(snap);
  return evaluate_set(ctx, nodes, opt);
}

}  // namespace netsel::select
