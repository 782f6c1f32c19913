#pragma once
// topo::FlatGraph: a single-allocation arena view of a topology plus its
// per-link weights, for the selection hot kernels.
//
// A BFS over the graph's own CSR and the SelectionContext's weight arrays
// reads the adjacency, the 32-byte Link records and two weight vectors:
// four unrelated cache-line streams per edge visit, re-streamed by every
// source of a 64-row warm pass. FlatGraph packs the same data into ONE
// contiguous arena
// (8-byte-aligned sections, built with a single allocation) so a traversal
// walks a compact, prefetch-friendly footprint and the whole structure can
// be accounted for with one arena_bytes() figure.
//
// Layout (sections in allocation order, each 8-byte aligned):
//   row_start    int32[V+1]   CSR offsets (the graph's own, so the
//   neighbor     int32[2E]    half-edge order is TopologyGraph::links_of
//   via          int32[2E]    order and every kernel below is bit-identical
//                             to the graph-walking bottleneck_row)
//   link_bw      double[E]    available bandwidth per link id
//   link_bwfactor double[E]   fraction-of-peak per link id
//   link_latency double[E]    one-way latency per link id
//   is_compute   char[V]      per-node compute flag
//   ends_xor     int32[E]     XOR of the two endpoint ids per link id —
//                             given one endpoint, the other is one XOR
//                             (lets the batched kernel store 8-byte
//                             {child, link} discovery records)
//
// Mutability contract: the structure (offsets/neighbors/via) is immutable;
// the weight sections may be patched in place (set_link_bw /
// set_link_bwfactor) by the SelectionContext delta path — a link-bandwidth
// delta is a two-double write instead of a rebuild. Structural deltas drop
// the arena (the owner rebuilds lazily); rebuilding costs one allocation
// plus memcpys.
//
// batched_bottleneck_rows is the multi-source companion of
// bottleneck_row: one adjacency sweep serves up to 64 sources via
// word-parallel uint64_t reachability masks, with a per-level discovery-
// order check that guarantees bit-identical output (including tree links
// and FIFO discovery order) to the scalar kernel — sources the check
// rejects are transparently rebuilt scalar, so callers always observe
// scalar-identical rows.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "topo/connectivity.hpp"
#include "topo/graph.hpp"

namespace netsel::topo {

class FlatGraph {
 public:
  FlatGraph() = default;
  FlatGraph(FlatGraph&&) = default;
  FlatGraph& operator=(FlatGraph&&) = default;
  FlatGraph(const FlatGraph&) = delete;
  FlatGraph& operator=(const FlatGraph&) = delete;

  /// Pack `g`'s adjacency and the two weight arrays (indexed by link id,
  /// one entry per link id including tombstoned slots) into a fresh arena.
  /// `bw`/`bwfactor` must have g.link_count() entries.
  static FlatGraph build(const TopologyGraph& g, std::span<const double> bw,
                         std::span<const double> bwfactor);

  std::size_t node_count() const { return node_count_; }
  std::size_t link_count() const { return link_count_; }
  /// Total bytes of the single arena allocation.
  std::size_t arena_bytes() const { return arena_bytes_; }

  std::span<const std::int32_t> row_start() const {
    return {row_start_, node_count_ + 1};
  }
  std::span<const NodeId> neighbor() const {
    return {neighbor_, half_edge_count_};
  }
  std::span<const LinkId> via() const { return {via_, half_edge_count_}; }
  std::span<const double> link_bw() const { return {bw_, link_count_}; }
  std::span<const double> link_bwfactor() const {
    return {bwfactor_, link_count_};
  }
  std::span<const double> link_latency() const {
    return {latency_, link_count_};
  }
  std::span<const char> is_compute() const {
    return {is_compute_, node_count_};
  }
  /// The endpoint of link `l` opposite `from` (which must be one of its
  /// endpoints).
  NodeId link_other(LinkId l, NodeId from) const {
    return static_cast<NodeId>(
        static_cast<std::uint32_t>(ends_xor_[static_cast<std::size_t>(l)]) ^
        static_cast<std::uint32_t>(from));
  }

  /// In-place weight patches (the delta fast path). The structure sections
  /// are never written after build.
  void set_link_bw(LinkId l, double v) {
    bw_[static_cast<std::size_t>(l)] = v;
  }
  void set_link_bwfactor(LinkId l, double v) {
    bwfactor_[static_cast<std::size_t>(l)] = v;
  }

 private:
  std::unique_ptr<std::byte[]> arena_;
  std::size_t arena_bytes_ = 0;
  std::size_t node_count_ = 0;
  std::size_t link_count_ = 0;
  std::size_t half_edge_count_ = 0;
  std::int32_t* row_start_ = nullptr;
  NodeId* neighbor_ = nullptr;
  LinkId* via_ = nullptr;
  double* bw_ = nullptr;
  double* bwfactor_ = nullptr;
  double* latency_ = nullptr;
  char* is_compute_ = nullptr;
  std::int32_t* ends_xor_ = nullptr;
};

/// Scalar per-source bottleneck row over the arena: bit-identical (values,
/// tree links, FIFO discovery order) to
/// bottleneck_row(TopologyGraph, src, bw, bwfactor) on the graph and arrays
/// the arena was built from. bottleneck2 is always populated (the arena always
/// carries both weights).
BottleneckRow bottleneck_row(const FlatGraph& g, NodeId src);

/// Observability of one batched call, summed across levels; the caller
/// folds these into its metric counters.
struct BatchStats {
  /// Level-synchronous passes over the frontier (all sources share passes).
  std::uint64_t passes = 0;
  /// uint64_t frontier-mask words combined across all half-edge visits —
  /// the unit of word-parallel work (one word serves up to 64 sources).
  std::uint64_t frontier_words = 0;
  /// Rows served by the batched sweep.
  std::uint64_t batched_rows = 0;
  /// Rows the discovery-order check rejected and rebuilt scalar.
  std::uint64_t scalar_fallback_rows = 0;
};

/// Build bottleneck rows for up to 64 sources in one word-parallel
/// multi-source BFS. `out` must have sources.size() entries; out[i] receives
/// the row for sources[i], bit-identical to bottleneck_row(g, sources[i])
/// in every field (bottleneck, bottleneck2, latency, reached, tree_link,
/// order). Rows may hold arbitrary prior content (e.g. last epoch's rows
/// being refreshed in place): rows already sized to node_count() are
/// overwritten without an intermediate re-zeroing pass — the replay writes
/// every reached entry and only the lane's unreached entries are reset —
/// which is what lets a warm refresh run at memory speed.
///
/// Identity argument: the batched sweep is level-synchronous and scans each
/// level's frontier in ascending node-id order. By induction, if every
/// level's discovery sequence for a source comes out ascending by id, the
/// id-order scan IS that source's FIFO order, so parents, values and the
/// recorded discovery order all coincide with the scalar kernel's. The
/// sweep verifies exactly that per source per level; a source with an
/// inverted discovery (possible on cyclic graphs whose adjacency does not
/// enumerate in id order, and on trees with out-of-order children) is
/// flagged and rebuilt with the scalar kernel before returning. Throws
/// std::invalid_argument for more than 64 sources or out-of-range ids.
void batched_bottleneck_rows(const FlatGraph& g,
                             std::span<const NodeId> sources,
                             std::span<BottleneckRow> out,
                             BatchStats* stats = nullptr);

}  // namespace netsel::topo
