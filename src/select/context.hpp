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
//   - per-source bottleneck-bandwidth rows along the deterministic BFS
//     tree (topo::bottleneck_row) — on acyclic graphs these are exactly
//     the widest-path bottlenecks, and they make the pairwise
//     min-bandwidth objective an O(1) lookup per pair; rows are built
//     lazily, so a context costs nothing until queried;
//   - the base connected-component decomposition (all links active).
//
// Row layout: a cached row stores one cell (bottleneck, bottleneck2,
// latency, tree link) per *stored* node — every node with two or more
// links when the layout was made, which on a fat-tree is the switches
// only. A node with at most one link is a leaf of every BFS tree but its
// own, so its values follow from its neighbour's cell and its one link:
// PairRow::at() derives them on read with the same std::min and + the
// BFS kernel applies when it discovers that node, so every value is
// bit-identical to topo::bottleneck_row. The layout is made by the first
// pair_row()/warm_rows() call. A stored node stays stored if its degree
// later falls; an unstored node never gains a second link without a
// relayout, because only LinkAdded raises a degree and it drops the layout.
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
//     re-sort) and *repairs* affected rows in place: the BFS tree is
//     weight-independent, so replaying the min-recurrence over the subtree
//     below the link with the updated weights is bit-identical to a
//     rebuild. A link with an unstored end (a host's access link) is in
//     the stored tree of one row only, the row sourced at that end; every
//     other row reads that end through the link on the fly. A link between
//     two stored nodes is in a row's tree iff the tree link of one of its
//     ends is that link;
//   - structural deltas: the graph patches its own CSR when it is
//     mutated; of its own the context keeps only flat(), the far end of
//     each half-edge, and clears it. Removing a link with an unstored end
//     drops only that end's row (other rows just stop reaching the leaf);
//     removing a link between stored nodes drops the rows whose tree used
//     it; adding a link drops every row and the layout (the tree may
//     reroute); an added node grows no row and reads as unreached.
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

namespace netsel::util {
class ThreadPool;
}

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

  /// Cached graph().is_acyclic(); invalidated only by structural deltas.
  bool acyclic() const;

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

  /// Links sorted ascending by (link_fraction under opt, id): the Fig. 3
  /// deletion sequence. With a reference link capacity the fraction is a
  /// constant multiple of the absolute bandwidth, so the Fig. 2 order is
  /// reused; otherwise the bwfactor order is cached separately.
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
    double latency = 0.0;
    /// Link that discovered the node; kInvalidLink while unreached (and
    /// for the source, whose values PairRow::at() answers directly).
    topo::LinkId tree_link = topo::kInvalidLink;
  };

 public:
  /// Read-only view of one cached row. Valid until the next mutation of the
  /// graph or the snapshot; building further rows does not move it.
  class PairRow {
   public:
    /// The row's values at `v`, bit-identical to topo::bottleneck_row.
    PairValue at(topo::NodeId v) const {
      constexpr double kInf = std::numeric_limits<double>::infinity();
      if (v == src_) return {true, kInf, kInf, 0.0};
      const auto iv = static_cast<std::size_t>(v);
      const std::int32_t s = slot_of_[iv];
      if (s >= 0) {
        const Cell& c = cells_[s];
        if (c.tree_link == topo::kInvalidLink) return {};
        return {true, c.bottleneck, c.bottleneck2, c.latency};
      }
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
        const Cell& c = cells_[su];
        if (c.tree_link == topo::kInvalidLink) return {};
        p = {true, c.bottleneck, c.bottleneck2, c.latency};
      }
      return {true, std::min(p.bottleneck, bw_[l]),
              std::min(p.bottleneck2, bwfactor_[l]), p.latency + lk.latency};
    }

   private:
    friend class SelectionContext;
    topo::NodeId src_ = topo::kInvalidNode;
    const Cell* cells_ = nullptr;
    const std::int32_t* slot_of_ = nullptr;
    const std::int32_t* adj_start_ = nullptr;
    const topo::LinkId* adj_link_ = nullptr;
    const topo::Link* links_ = nullptr;
    const double* bw_ = nullptr;
    const double* bwfactor_ = nullptr;
  };

  /// Cached bottleneck row from `src` over the full graph: bottleneck =
  /// available bandwidth, bottleneck2 = bwfactor, plus path latency and
  /// reachability, along the same deterministic BFS paths evaluate_set and
  /// bfs_path trace. Built lazily per source (one O(V + E) BFS over the
  /// graph's CSR that writes only the stored nodes' cells); the first call
  /// also makes the row layout. Throws std::out_of_range, before any state
  /// change, unless 0 <= src < graph().node_count().
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

  /// Build the pair_row() cache entries for `sources` on a thread pool
  /// (duplicates and already-built rows are skipped; each build counts as a
  /// row miss): the same compact rows pair_row() builds, one BFS per
  /// missing source, fanned out over the pool. Safe because every row
  /// lands in its own pre-sized slot; no other accessor may run
  /// concurrently — warm, then query. Results are identical at any thread
  /// count, the zero-worker serial mode included. Throws std::out_of_range,
  /// before any row is built, if any source is outside
  /// [0, graph().node_count()).
  void warm_rows(util::ThreadPool& pool,
                 const std::vector<topo::NodeId>& sources) const;

 private:
  /// Catch up with the snapshot: consume the missed deltas fine-grainedly,
  /// or drop every cache when the journal no longer covers the gap.
  void revalidate() const;
  void invalidate_all() const;
  void apply_delta(const remos::Delta& d) const;
  void apply_link_bandwidth(topo::LinkId l) const;
  void apply_node_added(topo::NodeId n) const;
  void apply_node_removed(topo::NodeId n) const;
  void apply_link_added(topo::LinkId l) const;
  void apply_link_removed(topo::LinkId l) const;
  /// Calls f(src, row, child) for every built row whose stored tree
  /// contains link `l`, `child` being the stored end it discovered through
  /// `l`. Only the rows sourced at an unstored end of `l` can (a host's
  /// access link is a derived leaf elsewhere); with both ends stored every
  /// row is asked, an O(1) probe of the two ends' tree links.
  template <class F>
  void for_rows_using(topo::LinkId l, F&& f) const;
  /// Replay the bottleneck min-recurrence with the current weight arrays
  /// over the stored subtree below `child` (tree unchanged -> bit-identical
  /// to rebuild; nodes outside that subtree cannot have changed, and
  /// unstored leaves are derived on read).
  void repair_row_values(Cell* cells, topo::NodeId src,
                         topo::NodeId child) const;
  /// One row: a BFS from `src` over the graph's CSR writing the stored
  /// nodes' cells. Needs the weight arrays, flat() and the layout built.
  std::unique_ptr<Cell[]> build_row(topo::NodeId src) const;
  /// Build what build_row() reads (the weight arrays, flat() and the row
  /// layout) where missing, and size the row slots.
  void ensure_layout() const;
  /// Drop every row and the layout, counting the drop as full.
  void drop_rows() const;

  const remos::NetworkSnapshot* snap_;
  mutable std::uint64_t epoch_;
  mutable int acyclic_ = -1;  // tri-state: unknown / no / yes
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
  /// Row layout: per node id, its cell index in every row, or -1 for an
  /// unstored node. Empty while there is no layout.
  mutable std::vector<std::int32_t> slot_of_;
  mutable std::size_t stored_count_ = 0;
  /// Per source node id: its row (stored_count_ cells), or null.
  mutable std::vector<std::unique_ptr<Cell[]>> rows_;
  mutable std::vector<remos::Delta> pending_;      // revalidate scratch
  mutable std::vector<topo::NodeId> repair_queue_;  // repair BFS scratch
};

}  // namespace netsel::select
