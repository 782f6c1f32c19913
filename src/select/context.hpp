#pragma once
// SelectionContext: shared, cached per-snapshot state for the selection
// stack.
//
// The paper's Fig. 2/3 algorithms and the exact pairwise objective are
// defined operationally — "delete the minimum-bandwidth edge, recompute
// connected components", "minimum bottleneck bandwidth over all selected
// pairs" — and the original implementations executed those definitions
// literally on every call: O(E) component sweeps per edge deletion and one
// BFS per node pair per evaluation, with nothing shared across algorithms,
// placement groups, or migration re-checks.
//
// A SelectionContext is built once per remos::NetworkSnapshot and caches
// everything that depends only on the snapshot (not on the per-call
// SelectionOptions):
//
//   - the edge-deletion orders of Fig. 2 (ascending available bandwidth)
//     and Fig. 3 (ascending fractional bandwidth), sorted once;
//   - per-source bottleneck-bandwidth rows along the static routes
//     (topo::bottleneck_row): the source's BFS tree in links_of() order,
//     the tree topo::RoutingTable routes simulated flows and Remos flow
//     queries on (topo/routing.hpp). On acyclic graphs these are exactly
//     the widest-path bottlenecks. They make the pairwise min-bandwidth
//     objective an O(1) lookup per pair; rows are built lazily, so a
//     context costs nothing until queried;
//   - the base connected-component decomposition (all links active).
//
// Row layout: rows are cached only at *stored* sources — every node with
// two or more links when the layout was made, which on a fat-tree is the
// switches only. A row holds one cell (bottleneck, bottleneck2, tree link)
// per stored node, the stored nodes in BFS discovery order, and latency
// columns. A node with at most one link is a leaf of every BFS tree but its
// own, so its values follow from its neighbour's and its one link's:
// PairRow::at() derives them on read with the std::min and + the BFS kernel
// applies when it discovers that node. A leaf *source* reads its one
// neighbour's row: the BFS from the leaf crosses its link first and then
// grows exactly the neighbour's tree (the leaf discovers nothing more), so
// a bandwidth value is std::min(first-hop value, cell value) — the first
// hop first, as the kernel folds it, so a -0.0/+0.0 tie resolves the same
// way. Latency sums do not regroup that way, so they live in columns: one
// per key 0.0 + first-hop latency (+0.0 for the row's own source), filled
// once in the row's discovery order with the kernel's parent + link
// additions starting from the key. Every value stays bit-identical to
// topo::bottleneck_row. The layout is made by the first pair_row() call. A
// stored node stays stored if its degree later falls; an unstored node
// never gains a second link without a relayout, because only LinkAdded
// raises a degree and it drops the layout.
//
// Validity contract: the snapshot carries an epoch counter bumped on every
// mutation plus a bounded journal of typed deltas (remos/delta.hpp). Each
// accessor revalidates against snapshot().epoch(); when the journal still
// covers the missed range, the context consumes the deltas with
// *fine-grained* invalidation instead of dropping everything:
//
//   - node load/memory deltas touch nothing cached here (eligibility and
//     cpu rankings are per-call state);
//   - a link-bandwidth delta repositions the link inside the cached
//     deletion orders (binary erase + sorted reinsert, identical to a
//     re-sort). A link with an unstored end (a host's access link) is in
//     no row's stored tree — it is a first hop or a derived leaf, both read
//     from the weight arrays when a row is asked for or read — so it
//     touches no row. A link between two stored nodes is in a row's tree
//     iff the tree link of one of its ends is that link, and those rows are
//     *repaired* in place: the BFS tree is weight-independent, so replaying
//     the min-recurrence over the subtree below the link with the updated
//     weights is bit-identical to a rebuild, and the latency columns keep;
//   - structural deltas: the graph patches its own CSR when it is
//     mutated; of its own the context keeps only flat(), the far end of
//     each half-edge, and clears it. Removing a link with an unstored end
//     touches no row (the leaf reads as detached from then on); removing a
//     link between stored nodes drops the rows whose tree used it, their
//     columns with them; adding a link drops every row and the layout (the
//     tree may reroute); an added node grows no row and reads as unreached.
//
// The deltas are replayed against the graph's *final* structure, not the
// structure each delta saw. Only repair_row_values walks the adjacency
// during a replay, and only to find a repaired node's tree children. A
// child it can no longer reach was discovered through a link that a later
// delta of the same batch removed — and that delta drops the row, since
// its tree used the link. A link or node the final graph has but the
// replay has not reached yet is no tree link of any cached row (tree links
// predate the row), and a later LinkAdded of the batch drops every row.
//
// When the journal has been trimmed past the context's epoch the context
// falls back to the historical behaviour: drop every cache, the row layout
// included. The referenced snapshot (and its graph) must outlive the
// context. Not thread-safe: accessors mutate the lazy caches.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "remos/snapshot.hpp"
#include "select/options.hpp"
#include "topo/connectivity.hpp"
#include "topo/graph.hpp"

namespace netsel::select {

class SelectionContext {
 public:
  /// Cheap: records the snapshot and its epoch; all caches fill on demand.
  explicit SelectionContext(const remos::NetworkSnapshot& snap);

  const remos::NetworkSnapshot& snapshot() const { return *snap_; }
  const topo::TopologyGraph& graph() const { return snap_->graph(); }

  /// Epoch of the snapshot the current caches were built against.
  std::uint64_t epoch() const { return epoch_; }
  /// True while the snapshot has not been mutated since the caches were
  /// (re)built. Accessors below revalidate automatically.
  bool current() const { return epoch_ == snap_->epoch(); }

  /// The far end of every half-edge, parallel to graph().adjacency().link:
  /// entry e is the node that link reaches from the node whose CSR row
  /// holds e. The one thing the row builds need that the graph does not
  /// store. Built lazily; structural deltas clear it (it is never patched).
  /// It keeps the name of the arena it replaced because the benchmark's
  /// traced pass still times it as topo.flat_build_ms.
  const std::vector<topo::NodeId>& flat() const;
  /// Bytes of the flat() array, 0 while not built. Named after the arena it
  /// replaced, for the benchmark's topo.arena_bytes metric and the
  /// select.ctx.arena_bytes gauge.
  std::size_t arena_bytes() const {
    return nbr_.size() * sizeof(topo::NodeId);
  }

  /// Available bandwidth per link, copied out of the snapshot (dense, for
  /// the kernels below).
  const std::vector<double>& link_bw() const;
  /// Fraction-of-peak (bwfactor) per link.
  const std::vector<double>& link_bwfactor() const;

  /// Links sorted ascending by (available bw, id): the Fig. 2 deletion
  /// sequence. The links masked out by a fixed-bandwidth requirement are
  /// exactly a prefix of this order.
  const std::vector<topo::LinkId>& links_by_bw() const;
  /// Index of the first entry of links_by_bw() with bw >= min_bw_bps; the
  /// suffix from here is the active-link deletion sequence under that
  /// requirement.
  std::size_t first_link_at_or_above(double min_bw_bps) const;

  /// Links sorted ascending by link_fraction under opt. Without a reference
  /// link capacity this is the cached (bwfactor, id) order, the Fig. 3
  /// deletion sequence. With one it is links_by_bw(): the fraction
  /// bw / reference_bw is monotone in bw, so that order is ascending by
  /// fraction, but where distinct bandwidths round to one fraction it keeps
  /// them by bandwidth rather than by id, so it is not Fig. 3's
  /// (fraction, id) sequence there (select_balanced re-sorts those runs).
  const std::vector<topo::LinkId>& links_by_fraction(
      const SelectionOptions& opt) const;

  /// Connected components with every link active (the initial state of the
  /// unconstrained algorithms).
  const topo::Components& base_components() const;

  /// One destination's entry of a pair_row(): the values
  /// topo::bottleneck_row holds at that node. Unreached nodes read
  /// {false, 0, 0, 0}, the source {true, +inf, +inf, 0}.
  struct PairValue {
    bool reached = false;
    double bottleneck = 0.0;   ///< min available bandwidth along the path
    double bottleneck2 = 0.0;  ///< min bwfactor along the path
    double latency = 0.0;      ///< summed link latency along the path
  };

 private:
  /// A cached row's entry at one stored node.
  struct Cell {
    double bottleneck = 0.0;
    double bottleneck2 = 0.0;
    /// Link that discovered the node; kInvalidLink while unreached, and
    /// kSourceLink at the row's own source, whose cell reads {+inf, +inf}.
    topo::LinkId tree_link = topo::kInvalidLink;
  };
  static constexpr topo::LinkId kSourceLink = -2;

 public:
  /// Read-only view of one cached row. Valid until the next mutation of the
  /// graph or the snapshot; building further rows or columns does not move
  /// it.
  class PairRow {
   public:
    /// The row's values at `v`, bit-identical to topo::bottleneck_row.
    PairValue at(topo::NodeId v) const {
      constexpr double kInf = std::numeric_limits<double>::infinity();
      if (v == src_) return {true, kInf, kInf, 0.0};
      const auto iv = static_cast<std::size_t>(v);
      const std::int32_t s = slot_of_[iv];
      if (s >= 0) return stored(s);
      // At most one link: v is a leaf hanging off its neighbour, discovered
      // exactly as the BFS kernel discovers it.
      const std::int32_t k = adj_start_[iv];
      if (k == adj_start_[iv + 1]) return {};
      const topo::LinkId l = adj_link_[k];
      const topo::Link& lk = links_[l];
      const topo::NodeId u = lk.other(v);
      PairValue p{true, kInf, kInf, 0.0};
      if (u != src_) {
        const std::int32_t su = slot_of_[static_cast<std::size_t>(u)];
        if (su < 0) return {};  // an isolated pair away from the source
        p = stored(su);
        if (!p.reached) return {};
      }
      return {true, std::min(p.bottleneck, bw_[l]),
              std::min(p.bottleneck2, bwfactor_[l]), p.latency + lk.latency};
    }

   private:
    friend class SelectionContext;
    /// Stored node in slot `s`: its cell behind the source's first hop
    /// (+inf for a stored source, so the cell reads unchanged), first
    /// operand first as the kernel folds it, and its column entry.
    PairValue stored(std::int32_t s) const {
      if (!cells_) return {};  // the source reaches no stored node
      const Cell& c = cells_[s];
      if (c.tree_link == topo::kInvalidLink) return {};
      return {true, std::min(first_bw_, c.bottleneck),
              std::min(first_bw2_, c.bottleneck2), latency_[s]};
    }

    topo::NodeId src_ = topo::kInvalidNode;
    /// The weights of a leaf source's one link; +inf for a stored source.
    double first_bw_ = std::numeric_limits<double>::infinity();
    double first_bw2_ = std::numeric_limits<double>::infinity();
    /// The cells of the row read (the source's own, or its neighbour's),
    /// and that row's column for the source's first-hop latency. Null when
    /// the source reaches no stored node.
    const Cell* cells_ = nullptr;
    const double* latency_ = nullptr;
    const std::int32_t* slot_of_ = nullptr;
    const std::int32_t* adj_start_ = nullptr;
    const topo::LinkId* adj_link_ = nullptr;
    const topo::Link* links_ = nullptr;
    const double* bw_ = nullptr;
    const double* bwfactor_ = nullptr;
  };

  /// Cached bottleneck row from `src` over the full graph: bottleneck =
  /// available bandwidth, bottleneck2 = bwfactor, plus path latency and
  /// reachability, along the static routes (topo::bfs_path). A stored
  /// source's row is built lazily (one O(V + E) BFS over the graph's CSR
  /// that writes only the stored nodes' cells); a source with one link
  /// reads its neighbour's row, and one with none, or whose neighbour has
  /// no other link, reads no row. The first call also makes the row
  /// layout. Throws std::out_of_range, before any state change, unless
  /// 0 <= src < graph().node_count().
  PairRow pair_row(topo::NodeId src) const;

  /// Fractional bottleneck of a pair_row() value under the options'
  /// reference rules (bw / reference_bw, or the bwfactor bottleneck).
  static double row_fraction(const PairValue& p, const SelectionOptions& opt) {
    if (opt.reference_bw > 0.0) return p.bottleneck / opt.reference_bw;
    return p.bottleneck2;
  }

  /// Per-node eligibility under `opt` (compute, mask, min-cpu, memory).
  /// Options-dependent, so computed per call — O(V), not cached.
  std::vector<char> eligibility(const SelectionOptions& opt) const;

 private:
  /// Path latencies from one first-hop key, per stored slot.
  struct Column {
    double key = 0.0;  ///< 0.0 + first-hop latency, never -0.0
    std::unique_ptr<double[]> latency;
  };
  /// One cached row, sourced at a stored node.
  struct Row {
    std::unique_ptr<Cell[]> cells;  ///< stored_count_ cells; null: not built
    std::vector<topo::NodeId> order;  ///< reached stored nodes, source first
    std::vector<Column> columns;
  };

  /// Catch up with the snapshot: consume the missed deltas fine-grainedly,
  /// or drop every cache when the journal no longer covers the gap.
  void revalidate() const;
  void invalidate_all() const;
  void apply_delta(const remos::Delta& d) const;
  void apply_link_bandwidth(topo::LinkId l) const;
  void apply_node_added() const;
  void apply_node_removed() const;
  void apply_link_added(topo::LinkId l) const;
  void apply_link_removed(topo::LinkId l) const;
  /// Calls f(row, child) for every built row whose stored tree contains
  /// link `l`, `child` being the end it discovered through `l`: an O(1)
  /// probe of the two ends' tree links per row. A link with an unstored end
  /// is in no stored tree.
  template <class F>
  void for_rows_using(topo::LinkId l, F&& f) const;
  /// Replay the bottleneck min-recurrence with the current weight arrays
  /// over the stored subtree below `child` (tree unchanged -> bit-identical
  /// to rebuild; nodes outside that subtree cannot have changed, unstored
  /// leaves are derived on read, and latency is weight-independent).
  void repair_row_values(Cell* cells, topo::NodeId child) const;
  /// Build `row`: a BFS from the stored node `src` over the graph's CSR
  /// writing the stored nodes' cells and discovery order. Needs the weight
  /// arrays, flat() and the layout built.
  void build_row(topo::NodeId src, Row& row) const;
  /// The column of `row` for first-hop latency key `key`, filled now if
  /// missing.
  const double* latency_column(Row& row, double key) const;
  /// Build what build_row() reads (the weight arrays, flat() and the row
  /// layout) where missing.
  void ensure_layout() const;
  /// Drop every row and the layout, counting the drop as full.
  void drop_rows() const;

  const remos::NetworkSnapshot* snap_;
  mutable std::uint64_t epoch_;
  mutable std::vector<topo::NodeId> nbr_;  // flat(); empty while not built
  mutable std::vector<double> bw_;
  mutable std::vector<double> bwfactor_;
  mutable std::vector<topo::LinkId> by_bw_;
  mutable std::vector<topo::LinkId> by_bwfactor_;
  /// Explicit validity flags: under link removal the cached vectors no
  /// longer track link_count(), so "wrong size" is not a usable dirtiness
  /// signal.
  mutable bool bw_valid_ = false;
  mutable bool bwfactor_valid_ = false;
  mutable bool by_bw_valid_ = false;
  mutable bool by_bwfactor_valid_ = false;
  mutable std::unique_ptr<topo::Components> base_comps_;
  /// Row layout: per node id, its slot (cell index in every row, and the
  /// index of its own row), or -1 for an unstored node. Empty while there
  /// is no layout.
  mutable std::vector<std::int32_t> slot_of_;
  mutable std::size_t stored_count_ = 0;
  /// Per stored slot: the row sourced at that node.
  mutable std::vector<Row> rows_;
  mutable std::vector<remos::Delta> pending_;      // revalidate scratch
  mutable std::vector<topo::NodeId> repair_queue_;  // repair BFS scratch
};

}  // namespace netsel::select
