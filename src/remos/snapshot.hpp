#pragma once
// NetworkSnapshot: the dynamic network state consumed by the node-selection
// algorithms (paper §3.1).
//
//   cpu(i)      = 1/(1 + loadaverage_i), the fraction of node i's own
//                 computation power available to an application;
//   bw(i,j)     = currently available bandwidth on a link;
//   maxbw(i,j)  = peak bandwidth (static, lives in the topology);
//   bwfactor    = bw / maxbw.
//
// For bidirectional links the available capacity is the minimum of the two
// directions (§3.3).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "remos/delta.hpp"
#include "topo/graph.hpp"
#include "topo/subgraph.hpp"

namespace netsel::remos {

class NetworkSnapshot {
 public:
  /// Build with everything fully available (no load, idle links).
  ///
  /// The snapshot is a *view*: it keeps a reference to `g`, which must
  /// outlive the snapshot (and must not be moved while the snapshot is
  /// alive). Remos::snapshot() returns views of the simulator's topology,
  /// which satisfies this by construction.
  explicit NetworkSnapshot(const topo::TopologyGraph& g);

  const topo::TopologyGraph& graph() const { return *graph_; }

  /// The paper's cpu function for a compute node: fraction in (0, 1].
  double cpu(topo::NodeId n) const { return cpu_.at(static_cast<std::size_t>(n)); }
  /// Available compute capacity in reference-node units:
  /// cpu(n) * capacity(n) / reference_capacity (§3.3, heterogeneous nodes).
  double cpu_reference(topo::NodeId n, double reference_capacity = 1.0) const;

  /// Available bandwidth of a link, bits/second (min over directions).
  double bw(topo::LinkId l) const {
    return std::min(bw_dir(l, true), bw_dir(l, false));
  }
  /// Available bandwidth of one direction (forward = a->b). The paper's
  /// undirected treatment uses bw() = min of both; custom execution
  /// patterns (§3.4, client-server) evaluate the significant direction
  /// only.
  double bw_dir(topo::LinkId l, bool forward) const {
    return bw_dir_.at(static_cast<std::size_t>(l) * 2 + (forward ? 0 : 1));
  }
  double maxbw(topo::LinkId l) const { return graph_->link(l).capacity_min(); }
  /// Fraction of peak bandwidth available on this link.
  double bwfactor(topo::LinkId l) const;
  /// Available bandwidth normalised by a reference link capacity
  /// (§3.3, heterogeneous links): fraction of the reference capacity this
  /// link can currently deliver, possibly > 1 for faster links.
  double bw_reference(topo::LinkId l, double reference_capacity) const;

  /// Free memory of a compute node in bytes (§3.4 extension). Nodes whose
  /// topology does not model memory report 0 and never satisfy a memory
  /// requirement.
  double free_memory(topo::NodeId n) const {
    return free_memory_.at(static_cast<std::size_t>(n));
  }
  /// The setters below throw std::invalid_argument on an out-of-range id,
  /// a cpu or memory write to a network node or removed host, and a NaN or
  /// infinite value: a NaN key would break the strict weak ordering the
  /// cached deletion-order sorts rely on. Negative free memory clamps to 0;
  /// an infinite loadavg is a fully loaded host (fraction 0).
  void set_free_memory(topo::NodeId n, double bytes);

  void set_cpu(topo::NodeId n, double fraction);
  void set_loadavg(topo::NodeId n, double loadavg);
  /// Set both directions to the same availability.
  void set_bw(topo::LinkId l, double bits_per_second);
  /// Set one direction; bw(l) becomes the min of the two directions.
  void set_bw_dir(topo::LinkId l, bool forward, double bits_per_second);

  /// Version counter, bumped on every mutation (set_cpu, set_bw, ...).
  /// Derived caches (select::SelectionContext) key their validity on this:
  /// a cache built at epoch e is valid exactly while epoch() == e. Copies
  /// carry the epoch of the source at copy time and version independently
  /// afterwards.
  std::uint64_t epoch() const { return epoch_; }

  /// Structural notifications. The underlying TopologyGraph may grow
  /// (add_compute/add_network/add_link) or shrink (remove_link/remove_node)
  /// after a snapshot was built against it; the owner of both must notify
  /// every live snapshot of each change, *in order*, so the per-node and
  /// per-link arrays stay id-aligned and the journal records the change.
  /// notify_node_added / notify_link_added must name the id the graph just
  /// returned (ids are appended densely); added state starts at the
  /// constructor's prior (idle node, link at capacity). Removal notifications
  /// zero the corresponding availability.
  void notify_node_added(topo::NodeId n);
  void notify_node_removed(topo::NodeId n);
  void notify_link_added(topo::LinkId l);
  void notify_link_removed(topo::LinkId l);

  /// Append the deltas that transitioned this snapshot from `since_epoch` to
  /// epoch() onto `out` (oldest first) and return true. Returns false —
  /// appending nothing — when the bounded journal no longer retains that
  /// range (the caller has missed too much and must rebuild from scratch).
  bool deltas_since(std::uint64_t since_epoch, std::vector<Delta>& out) const;

  /// Journal capacity (number of most-recent deltas retained). Shrinking or
  /// growing discards the currently retained deltas, so caches built at an
  /// older epoch fall back to a full rebuild once.
  void set_delta_journal_capacity(std::size_t capacity);
  std::size_t delta_journal_capacity() const { return journal_cap_; }

  static constexpr std::size_t kDefaultJournalCapacity = 1024;

 private:
  void record(const Delta& d);
  /// Setter guards: throw std::invalid_argument unless `n` is an in-range
  /// compute node / `l` an in-range link and the bandwidth finite and >= 0.
  void check_node_write(topo::NodeId n, const char* what) const;
  void check_bw_write(topo::LinkId l, double bits_per_second,
                      const char* what) const;

  /// Links covered by the per-direction array (ids are dense).
  std::size_t link_count() const { return bw_dir_.size() / 2; }

  const topo::TopologyGraph* graph_;
  std::uint64_t epoch_ = 0;
  std::vector<double> cpu_;          // per node; 0 for network nodes
  std::vector<double> free_memory_;  // per node, bytes
  std::vector<double> bw_dir_;       // per link direction (2 per link)
  /// Bounded delta ring: the journal_size_ most recent deltas, oldest at
  /// journal_head_. journal_first_epoch_ is the epoch *before* the oldest
  /// retained delta, so journal_first_epoch_ + journal_size_ == epoch_.
  std::vector<Delta> journal_;
  std::size_t journal_cap_ = kDefaultJournalCapacity;
  std::size_t journal_head_ = 0;
  std::size_t journal_size_ = 0;
  std::uint64_t journal_first_epoch_ = 0;
};

/// Seeded synthetic availability for scale benchmarks and generated
/// topologies (topo/synthetic.hpp): every compute node gets a load average
/// drawn uniformly from [0, max_loadavg] and every link an utilisation drawn
/// uniformly from [0, max_utilisation] (both directions equal), in id order
/// from util::Rng(seed) — deterministic across platforms. The graph's static
/// capacities are untouched; only the dynamic state moves.
void apply_synthetic_load(NetworkSnapshot& snap, std::uint64_t seed,
                          double max_loadavg = 4.0,
                          double max_utilisation = 0.9);

/// Project a snapshot of the parent topology onto an extracted logical
/// sub-topology (§2.2 "the relevant part of the network"): availability of
/// surviving nodes and links carries over. The returned snapshot views
/// `sub.graph`, which must outlive it.
NetworkSnapshot project_snapshot(const NetworkSnapshot& parent,
                                 const topo::LogicalSubgraph& sub);

}  // namespace netsel::remos
