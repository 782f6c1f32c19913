#pragma once
// Connected-component machinery used by the Fig. 2 / Fig. 3 selection
// algorithms, which repeatedly delete the minimum-bandwidth edge and re-ask
// "which components still contain at least m compute nodes?".
//
// Besides the literal per-sweep decomposition the paper describes, this
// header provides the kernels the selection layer's fast paths are built on:
//   - EligibleUnionFind: offline *incremental* connectivity. The Fig. 2/3
//     edge-deletion sequence, processed in reverse, is a sequence of edge
//     *insertions*; a union-find that tracks per-component eligible-node
//     counts answers "first state with a component of >= m eligible nodes"
//     in near-linear time instead of one O(V+E) sweep per deletion.
//   - bottleneck_row: per-source widest-path/bottleneck values along the
//     deterministic BFS tree (on acyclic graphs: the unique path, hence the
//     true widest path). This is the cached kernel behind the pairwise
//     min-bandwidth objective.

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

  /// Nodes belonging to component c, in id order.
  std::vector<NodeId> members(int c) const;
};

/// Decompose `g` into connected components considering only links for which
/// `link_active[l]` is true. `link_active` must have size g.link_count().
Components connected_components(const TopologyGraph& g,
                                const std::vector<char>& link_active);

/// Convenience: all links active.
Components connected_components(const TopologyGraph& g);

/// Compressed-sparse-row view of a TopologyGraph's adjacency, for the hot
/// traversal kernels (bottleneck_row, connected_components). The per-node
/// vector-of-vectors layout of TopologyGraph::links_of costs a pointer chase
/// and a Link lookup per edge visit; the CSR form stores (neighbor, link)
/// pairs in two flat arrays, *preserving the exact links_of() iteration
/// order* so every traversal below is bit-identical to the graph-walking
/// version. Purely structural (no bandwidths): build once per graph and
/// reuse across snapshots.
struct CsrAdjacency {
  /// row_start[n] .. row_start[n+1] indexes the half-edges of node n.
  std::vector<std::int32_t> row_start;
  /// Other endpoint of each half-edge.
  std::vector<NodeId> neighbor;
  /// Link id of each half-edge.
  std::vector<LinkId> via;
  /// Per-link one-way latency, copied out of the Link records.
  std::vector<double> link_latency;
  /// Per-node compute flag (for component compute counts).
  std::vector<char> is_compute;

  std::size_t node_count() const { return is_compute.size(); }
  std::size_t link_count() const { return link_latency.size(); }

  static CsrAdjacency build(const TopologyGraph& g);

  /// In-place structural patches, mirroring a TopologyGraph mutation so the
  /// patched CSR equals build() on the mutated graph bit for bit — half-edge
  /// order included. O(V + E) memmoves per patch instead of a full rebuild
  /// with fresh allocations. `g` must already reflect the mutation; patches
  /// must be applied in mutation order.
  void patch_add_node(const TopologyGraph& g, NodeId n);
  void patch_add_link(const TopologyGraph& g, LinkId l);
  void patch_remove_link(const TopologyGraph& g, LinkId l);
  /// Node removal only clears the compute flag (removal requires degree 0,
  /// so there are no half-edges to drop).
  void patch_remove_node(NodeId n);
};

/// connected_components over the CSR view; identical output (component
/// numbering included) to the TopologyGraph overloads.
Components connected_components(const CsrAdjacency& adj,
                                const std::vector<char>& link_active);
Components connected_components(const CsrAdjacency& adj);

/// Id of the component with the most compute nodes (ties broken toward the
/// lower component id, which is deterministic); -1 when there are none.
int largest_compute_component(const Components& c);

/// Union-find over node ids with per-component bookkeeping tailored to the
/// selection algorithms: each component tracks its *eligible*-node count
/// (eligibility is whatever mask the caller supplies — typically "compute,
/// unmasked, meets min-cpu/memory requirements") and its minimum member id
/// (the tie-break `connected_components` implies, since component ids are
/// assigned in increasing order of the smallest contained node id).
///
/// Used to process an edge-deletion sequence offline: replay the deletions
/// in reverse as unions, stopping at the first (reverse) state whose best
/// component satisfies the caller's predicate. Union by size + path halving:
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
  /// Smallest node id in the component rooted at `root` (the deterministic
  /// component ordering of connected_components).
  NodeId min_member(NodeId root) { return min_member_[idx(find(root))]; }
  /// Largest eligible count over all current components.
  int max_eligible() const { return max_eligible_; }

 private:
  static std::size_t idx(NodeId n) { return static_cast<std::size_t>(n); }
  std::vector<NodeId> parent_;
  std::vector<int> size_;
  std::vector<int> eligible_;
  std::vector<NodeId> min_member_;
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
  /// BFS-tree structure: the link that first reached each node
  /// (kInvalidLink for src and unreached nodes) and the discovery (FIFO)
  /// order of the reached nodes, src first — what the batched kernel's
  /// bit-identity contract compares. Replaying the bottleneck recurrence
  /// over `order` with updated weights is bit-identical to a rebuild,
  /// because the tree is weight-independent.
  std::vector<LinkId> tree_link;
  std::vector<NodeId> order;
};

BottleneckRow bottleneck_row(const TopologyGraph& g, NodeId src,
                             std::span<const double> weight,
                             std::span<const double> weight2 = {});

/// CSR-backed bottleneck_row: same BFS tree (CSR preserves links_of order),
/// same values, no per-edge Link lookups. bench_scale times it as the CSR
/// baseline of its kernel section.
BottleneckRow bottleneck_row(const CsrAdjacency& adj, NodeId src,
                             std::span<const double> weight,
                             std::span<const double> weight2 = {});

}  // namespace netsel::topo
