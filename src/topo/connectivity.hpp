#pragma once
// Connected-component machinery used by the Fig. 2 / Fig. 3 selection
// algorithms, which repeatedly delete the minimum-bandwidth edge and re-ask
// "which components still contain at least m compute nodes?".
//
// Besides the literal per-sweep decomposition the paper describes, this
// header provides the kernels the selection layer's fast paths are built on:
//   - EligibleUnionFind: offline *incremental* connectivity for Fig. 2. The
//     edge-deletion sequence, processed in reverse, is a sequence of edge
//     *insertions*; a union-find that tracks per-component eligible-node
//     counts answers "first state with a component of >= m eligible nodes"
//     in near-linear time instead of one O(V+E) sweep per deletion. (Fig. 3's
//     merge-forest replay keeps its own, leaner union-find in
//     select/balanced.cpp.)
//   - bottleneck_row: per-source widest-path/bottleneck values along the
//     deterministic BFS tree (on acyclic graphs: the unique path, hence the
//     true widest path). select::SelectionContext caches compact rows of
//     the same values for the pairwise min-bandwidth objective; this
//     full-width version is the reference its rows are tested against.

#include <span>
#include <vector>

#include "topo/graph.hpp"

namespace netsel::topo {

/// Result of a component decomposition under an edge mask.
struct Components {
  /// component id per node (dense, 0-based).
  std::vector<int> comp_of;
  /// number of components.
  int count = 0;
  /// compute-node count per component.
  std::vector<int> compute_count;
  /// total node count per component.
  std::vector<int> node_count;
};

/// Decompose `g` into connected components considering only links for which
/// `link_active[l]` is true. `link_active` must have size g.link_count().
Components connected_components(const TopologyGraph& g,
                                const std::vector<char>& link_active);

/// Convenience: all links active.
Components connected_components(const TopologyGraph& g);

/// Union-find over node ids where each component tracks its *eligible*-node
/// count (eligibility is whatever mask the caller supplies — typically
/// "compute, unmasked, meets min-cpu/memory requirements").
///
/// Used by the Fig. 2 selector (select/max_bandwidth.cpp) to process an
/// edge-deletion sequence offline: replay the deletions in reverse as
/// unions, stopping at the first (reverse) state whose best component
/// satisfies the caller's predicate. Union by size + path halving:
/// effectively O(alpha) per operation.
class EligibleUnionFind {
 public:
  /// `eligible` must have one entry per node; true entries count toward
  /// eligible_count().
  explicit EligibleUnionFind(const std::vector<char>& eligible);

  NodeId find(NodeId n);
  /// Merge the components of a and b; returns the surviving root.
  NodeId unite(NodeId a, NodeId b);

  /// Eligible members in the component rooted at `root`.
  int eligible_count(NodeId root) { return eligible_[idx(find(root))]; }
  /// Largest eligible count over all current components.
  int max_eligible() const { return max_eligible_; }

 private:
  static std::size_t idx(NodeId n) { return static_cast<std::size_t>(n); }
  std::vector<NodeId> parent_;
  std::vector<int> size_;
  std::vector<int> eligible_;
  int max_eligible_ = 0;
};

/// Per-source bottleneck values along the deterministic BFS tree of `g`
/// (FIFO queue, links_of() order — the exact tie-break used by static
/// routing and by the pairwise set evaluation). `weight` and `weight2` give
/// per-link widths; the row carries, for every destination, the minimum
/// weight along the tree path, the sum of link latencies, and reachability.
/// On acyclic graphs the BFS path is the unique path, so the bottleneck
/// equals the widest-path (max-bottleneck) value.
struct BottleneckRow {
  std::vector<double> bottleneck;   ///< min weight along path; src = +inf
  std::vector<double> bottleneck2;  ///< same for weight2 (empty if not given)
  std::vector<double> latency;      ///< summed link latency along path
  std::vector<char> reached;        ///< 0 for nodes in other components
};

BottleneckRow bottleneck_row(const TopologyGraph& g, NodeId src,
                             std::span<const double> weight,
                             std::span<const double> weight2 = {});

}  // namespace netsel::topo
