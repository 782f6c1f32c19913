#pragma once
// Exact evaluation of a candidate node set against a snapshot — the ground
// truth the algorithms are judged by in tests, benches and the brute-force
// reference: minimum pairwise bottleneck bandwidth (over actual paths) and
// minimum fractional cpu.

#include <vector>

#include "remos/snapshot.hpp"
#include "select/options.hpp"
#include "topo/graph.hpp"

namespace netsel::select {

class SelectionContext;

struct SetEvaluation {
  bool connected = false;
  /// Minimum fractional cpu (reference units) among the set.
  double min_cpu = 0.0;
  /// Minimum over node pairs of the bottleneck available bandwidth along
  /// the path between them, bits/second. For a single-node set there are no
  /// pairs; by convention this is the node's NIC availability — the maximum
  /// available bandwidth over its incident links (0 for an isolated node) —
  /// so the figure is always finite and printable.
  double min_pair_bw = 0.0;
  /// Same, in fractional (reference) units per the options. The single-node
  /// convention applies per-figure: the maximum link *fraction* over the
  /// incident links, which may come from a different link than min_pair_bw.
  double min_pair_bw_fraction = 0.0;
  /// min(min_cpu / cpu_priority, min_pair_bw_fraction / bw_priority).
  double balanced = 0.0;
  /// Maximum over node pairs of the summed link latency along the path
  /// (0 for singleton sets).
  double max_pair_latency = 0.0;
};

/// Evaluate `nodes` on the full graph, each pair along its static route
/// (topo/routing.hpp; on acyclic graphs the unique path). Single-node sets
/// use the finite NIC-availability convention documented on
/// SetEvaluation::min_pair_bw.
SetEvaluation evaluate_set(const remos::NetworkSnapshot& snap,
                           const std::vector<topo::NodeId>& nodes,
                           const SelectionOptions& opt = {});

/// Same, against a SelectionContext: pairwise bottlenecks come from the
/// context's cached per-source rows (identical paths and values), so
/// repeated evaluations against one snapshot cost O(1) per pair after the
/// first touch of each source node.
SetEvaluation evaluate_set(const SelectionContext& ctx,
                           const std::vector<topo::NodeId>& nodes,
                           const SelectionOptions& opt = {});

/// Union of links on all pairwise paths of the set in the BFS trees over
/// an active-link mask (used by the Steiner-restricted Fig. 3 variant).
std::vector<topo::LinkId> steiner_links(const topo::TopologyGraph& g,
                                        const std::vector<char>& link_active,
                                        const std::vector<topo::NodeId>& nodes);

}  // namespace netsel::select
