#include "select/context.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace netsel::select {

namespace {
// Cache visibility for the shared-context layer: every pair_row() lookup is
// a hit (slot already built) or a miss (BFS bottleneck row built now);
// epoch invalidations count *full* cache drops (journal trimmed past the
// context's epoch); the delta.* / rows.* families count the fine-grained
// path. Purely observational — one branch each while the registry is
// disabled.
obs::Counter& row_hits() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.row_hits");
  return c;
}
obs::Counter& row_misses() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.row_misses");
  return c;
}
obs::Counter& invalidations() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.invalidations");
  return c;
}
obs::Counter& order_builds() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.order_builds");
  return c;
}
obs::Counter& deltas_applied() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.delta.applied");
  return c;
}
obs::Counter& rows_invalidated_partial() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.rows.invalidated.partial");
  return c;
}
obs::Counter& rows_invalidated_full() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.rows.invalidated.full");
  return c;
}
obs::Counter& rows_repaired() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.rows.repaired");
  return c;
}
obs::Gauge& arena_bytes_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("select.ctx.arena_bytes");
  return g;
}
}  // namespace

SelectionContext::SelectionContext(const remos::NetworkSnapshot& snap)
    : snap_(&snap), epoch_(snap.epoch()) {
  // Touch every context metric so all are registered (and exported,
  // possibly at 0) as soon as any context exists — a run with no cache hits
  // still reports select.ctx.row_hits: 0 rather than omitting it.
  row_hits();
  row_misses();
  invalidations();
  order_builds();
  deltas_applied();
  rows_invalidated_partial();
  rows_invalidated_full();
  rows_repaired();
  arena_bytes_gauge();
  // Owned by prune.cpp, but registered here too: the candidate-count
  // short-circuit can mean no selection ever reaches the pruner, and the
  // exported document must still carry the counter at 0.
  obs::Registry::global().counter("select.prune.dropped");
}

// ---------------------------------------------------------------------------
// Delta consumption
// ---------------------------------------------------------------------------

void SelectionContext::revalidate() const {
  if (epoch_ == snap_->epoch()) return;
  pending_.clear();
  if (snap_->deltas_since(epoch_, pending_)) {
    deltas_applied().inc(pending_.size());
    for (const remos::Delta& d : pending_) apply_delta(d);
  } else {
    // The journal no longer covers our epoch: fall back to the historical
    // drop-everything behaviour.
    invalidate_all();
  }
  epoch_ = snap_->epoch();
}

void SelectionContext::invalidate_all() const {
  invalidations().inc();
  drop_rows();
  bw_.clear();
  bwfactor_.clear();
  by_bw_.clear();
  by_bwfactor_.clear();
  bw_valid_ = bwfactor_valid_ = by_bw_valid_ = by_bwfactor_valid_ = false;
  base_comps_.reset();
  // The unseen deltas may have been structural, so the graph-shaped caches
  // go too.
  nbr_.clear();
  arena_bytes_gauge().set(0.0);
  acyclic_ = -1;
}

void SelectionContext::apply_delta(const remos::Delta& d) const {
  switch (d.kind) {
    case remos::DeltaKind::NodeLoad:
    case remos::DeltaKind::NodeMemory:
      // Eligibility and cpu rankings are per-call state; nothing cached
      // here depends on node sensors.
      return;
    case remos::DeltaKind::LinkBandwidth: return apply_link_bandwidth(d.link);
    case remos::DeltaKind::NodeAdded: return apply_node_added(d.node);
    case remos::DeltaKind::NodeRemoved: return apply_node_removed(d.node);
    case remos::DeltaKind::LinkAdded: return apply_link_added(d.link);
    case remos::DeltaKind::LinkRemoved: return apply_link_removed(d.link);
  }
}

namespace {

// (key, id) is a strict total order over links (ids are distinct), and it
// is exactly the order stable_sort-ascending-by-key produces, so a binary
// erase + sorted reinsert leaves the order identical to a rebuilt sort.
bool order_erase(std::vector<topo::LinkId>& order,
                 const std::vector<double>& key, topo::LinkId l) {
  auto less = [&](topo::LinkId a, topo::LinkId b) {
    const double ka = key[static_cast<std::size_t>(a)];
    const double kb = key[static_cast<std::size_t>(b)];
    if (ka != kb) return ka < kb;
    return a < b;
  };
  auto it = std::lower_bound(order.begin(), order.end(), l, less);
  if (it == order.end() || *it != l)
    it = std::find(order.begin(), order.end(), l);  // defensive; never hit
  if (it == order.end()) return false;
  order.erase(it);
  return true;
}

void order_insert(std::vector<topo::LinkId>& order,
                  const std::vector<double>& key, topo::LinkId l) {
  auto less = [&](topo::LinkId a, topo::LinkId b) {
    const double ka = key[static_cast<std::size_t>(a)];
    const double kb = key[static_cast<std::size_t>(b)];
    if (ka != kb) return ka < kb;
    return a < b;
  };
  order.insert(std::lower_bound(order.begin(), order.end(), l, less), l);
}

}  // namespace

template <class F>
void SelectionContext::for_rows_using(topo::LinkId l, F&& f) const {
  if (slot_of_.empty()) return;  // no layout, no rows
  const topo::Link& ln = graph().link(l);
  // The stored end the row's tree discovered through l, if any.
  auto child = [&](const Cell* cells) {
    for (const topo::NodeId x : {ln.a, ln.b}) {
      const std::int32_t s = slot_of_[static_cast<std::size_t>(x)];
      if (s >= 0 && cells[s].tree_link == l) return x;
    }
    return topo::kInvalidNode;
  };
  auto visit = [&](std::size_t src) {
    if (!rows_[src]) return;
    const topo::NodeId c = child(rows_[src].get());
    if (c != topo::kInvalidNode)
      f(static_cast<topo::NodeId>(src), rows_[src], c);
  };
  bool leaf_end = false;
  for (const topo::NodeId x : {ln.a, ln.b}) {
    if (slot_of_[static_cast<std::size_t>(x)] >= 0) continue;
    // x has no other link: l is the first edge of x's own tree and reaches
    // a derived leaf in every other row.
    leaf_end = true;
    visit(static_cast<std::size_t>(x));
  }
  if (leaf_end) return;
  for (std::size_t src = 0; src < rows_.size(); ++src) visit(src);
}

void SelectionContext::apply_link_bandwidth(topo::LinkId l) const {
  const auto il = static_cast<std::size_t>(l);
  bool changed = false;
  // Patch the cached weight arrays to the snapshot's *current* value (not
  // the delta's recorded one): repeated deltas for the same link converge,
  // and a later repair always sees final weights. Erase with the old key
  // before writing the new one — the deletion orders are sorted by the
  // cached key.
  if (bw_valid_ && il < bw_.size()) {
    const double nb = snap_->bw(l);
    if (bw_[il] != nb) {
      if (by_bw_valid_) order_erase(by_bw_, bw_, l);
      bw_[il] = nb;
      if (by_bw_valid_) order_insert(by_bw_, bw_, l);
      changed = true;
    }
  }
  if (bwfactor_valid_ && il < bwfactor_.size()) {
    const double nf = snap_->bwfactor(l);
    if (bwfactor_[il] != nf) {
      if (by_bwfactor_valid_) order_erase(by_bwfactor_, bwfactor_, l);
      bwfactor_[il] = nf;
      if (by_bwfactor_valid_) order_insert(by_bwfactor_, bwfactor_, l);
      changed = true;
    }
  }
  if (!changed) return;
  // Rows whose stored tree does not use l read it, if at all, through a
  // derived leaf; rows whose tree does are repaired in place (value replay
  // over the subtree below l, no BFS).
  for_rows_using(l, [&](topo::NodeId src, std::unique_ptr<Cell[]>& row,
                        topo::NodeId child) {
    repair_row_values(row.get(), src, child);
    rows_repaired().inc();
  });
}

void SelectionContext::repair_row_values(Cell* cells, topo::NodeId src,
                                         topo::NodeId child) const {
  // The BFS tree is weight-independent, so only the values changed, and
  // only inside the subtree hanging below the changed link: `child`, the
  // node the tree discovered through it, and its tree descendants. Nodes
  // discovered before that child cannot have the link on their tree path
  // (ancestors precede descendants in BFS order), and siblings' paths
  // avoid it entirely. Each recomputation is the exact float operation the
  // build performs, on a parent value that is already final (parents are
  // dequeued before their children below), so the result is bit-identical
  // to a from-scratch rebuild. latency and reachability are
  // weight-independent. A stored node's parent is the source or stored:
  // an unstored node other than the source discovers nothing. The walk
  // reads the graph's final structure (see the validity contract in the
  // header): a child reached through a link removed later in the batch is
  // missed, but that removal drops this row.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto adj = graph().adjacency();
  const auto links = graph().links();
  repair_queue_.clear();
  repair_queue_.push_back(child);
  for (std::size_t qi = 0; qi < repair_queue_.size(); ++qi) {
    const topo::NodeId v = repair_queue_[qi];
    const auto iv = static_cast<std::size_t>(v);
    Cell& c = cells[slot_of_[iv]];
    const auto il = static_cast<std::size_t>(c.tree_link);
    const topo::NodeId p = links[il].other(v);
    double pb = kInf;
    double pb2 = kInf;
    if (p != src) {
      const Cell& pc = cells[slot_of_[static_cast<std::size_t>(p)]];
      pb = pc.bottleneck;
      pb2 = pc.bottleneck2;
    }
    c.bottleneck = std::min(pb, bw_[il]);
    c.bottleneck2 = std::min(pb2, bwfactor_[il]);
    for (auto k = adj.start[iv]; k < adj.start[iv + 1]; ++k) {
      // w is v's tree child iff the edge that discovered w is this one. A w
      // past slot_of_ was added later in the batch, and so was its link:
      // that LinkAdded drops every row.
      const topo::LinkId l = adj.link[static_cast<std::size_t>(k)];
      const auto iw = static_cast<std::size_t>(
          links[static_cast<std::size_t>(l)].other(v));
      if (iw >= slot_of_.size()) continue;
      const std::int32_t sw = slot_of_[iw];
      if (sw >= 0 && cells[sw].tree_link == l)
        repair_queue_.push_back(static_cast<topo::NodeId>(iw));
    }
  }
}

void SelectionContext::apply_node_added(topo::NodeId n) const {
  nbr_.clear();
  if (base_comps_) {
    // The new node has the highest id and no links, so a rebuild would
    // discover it last as a singleton component: append exactly that.
    base_comps_->comp_of.push_back(base_comps_->count);
    base_comps_->compute_count.push_back(graph().is_compute(n) ? 1 : 0);
    base_comps_->node_count.push_back(1);
    ++base_comps_->count;
  }
  // No row grows: the node is unstored (it has no link), so every row
  // reads it as unreached, and pair_row() sizes the row slots.
  if (!slot_of_.empty()) slot_of_.push_back(-1);
  // acyclic_ is kept: an isolated node never creates a cycle.
}

void SelectionContext::apply_node_removed(topo::NodeId n) const {
  // Removal requires degree 0, so by the time this delta arrives every
  // incident link has already been removed (and the rows those removals
  // touched dropped): no built row reaches n except n's own singleton row,
  // which a rebuild reproduces unchanged. Only the compute flag flips; a
  // stored n keeps its (unreached) cells.
  nbr_.clear();
  if (base_comps_) {
    const int c = base_comps_->comp_of[static_cast<std::size_t>(n)];
    base_comps_->compute_count[c] = 0;  // degree-0 singleton, now tombstoned
  }
  // acyclic_ and the weight caches are link-shaped: untouched.
}

void SelectionContext::apply_link_added(topo::LinkId l) const {
  const auto il = static_cast<std::size_t>(l);
  nbr_.clear();
  acyclic_ = -1;
  base_comps_.reset();
  if (bw_valid_) {
    if (bw_.size() == il) {
      bw_.push_back(snap_->bw(l));
      if (by_bw_valid_) order_insert(by_bw_, bw_, l);
    } else {  // defensive; applied-in-order deltas keep sizes aligned
      bw_valid_ = by_bw_valid_ = false;
      bw_.clear();
      by_bw_.clear();
    }
  }
  if (bwfactor_valid_) {
    if (bwfactor_.size() == il) {
      bwfactor_.push_back(snap_->bwfactor(l));
      if (by_bwfactor_valid_) order_insert(by_bwfactor_, bwfactor_, l);
    } else {
      bwfactor_valid_ = by_bwfactor_valid_ = false;
      bwfactor_.clear();
      by_bwfactor_.clear();
    }
  }
  // A new edge can reroute any BFS tree (it is appended to its endpoints'
  // adjacency, but may shorten paths elsewhere), and it can give an
  // unstored node a second link: drop all rows and the layout.
  drop_rows();
}

void SelectionContext::apply_link_removed(topo::LinkId l) const {
  const auto il = static_cast<std::size_t>(l);
  nbr_.clear();
  acyclic_ = -1;
  base_comps_.reset();
  if (bw_valid_ && il < bw_.size()) {
    if (by_bw_valid_) order_erase(by_bw_, bw_, l);
    bw_[il] = 0.0;  // what the snapshot now reports for the tombstoned link
  }
  if (bwfactor_valid_ && il < bwfactor_.size()) {
    if (by_bwfactor_valid_) order_erase(by_bwfactor_, bwfactor_, l);
    bwfactor_[il] = 0.0;
  }
  // Removing a non-tree edge never changes a BFS tree (the tree edge into
  // each node is the *first* edge reaching it in scan order; dropping a
  // later edge cannot promote an earlier one). Only rows whose stored tree
  // used l are dropped: for a link with an unstored end that is the row
  // sourced at that end, and the other rows stop reaching the leaf because
  // the graph no longer lists the link.
  for_rows_using(l, [&](topo::NodeId, std::unique_ptr<Cell[]>& row,
                        topo::NodeId) {
    row.reset();
    rows_invalidated_partial().inc();
  });
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

bool SelectionContext::acyclic() const {
  revalidate();
  if (acyclic_ == -1) acyclic_ = graph().is_acyclic() ? 1 : 0;
  return acyclic_ == 1;
}

const std::vector<topo::NodeId>& SelectionContext::flat() const {
  revalidate();
  if (nbr_.empty()) {
    const auto adj = graph().adjacency();
    const auto links = graph().links();
    nbr_.resize(adj.link.size());
    for (std::size_t u = 0; u + 1 < adj.start.size(); ++u)
      for (auto e = adj.start[u]; e < adj.start[u + 1]; ++e) {
        const auto ie = static_cast<std::size_t>(e);
        nbr_[ie] = links[static_cast<std::size_t>(adj.link[ie])].other(
            static_cast<topo::NodeId>(u));
      }
    arena_bytes_gauge().set(static_cast<double>(arena_bytes()));
  }
  return nbr_;
}

const std::vector<double>& SelectionContext::link_bw() const {
  revalidate();
  if (!bw_valid_) {
    bw_.resize(graph().link_count());
    for (std::size_t l = 0; l < bw_.size(); ++l)
      bw_[l] = snap_->bw(static_cast<topo::LinkId>(l));
    bw_valid_ = true;
  }
  return bw_;
}

const std::vector<double>& SelectionContext::link_bwfactor() const {
  revalidate();
  if (!bwfactor_valid_) {
    bwfactor_.resize(graph().link_count());
    for (std::size_t l = 0; l < bwfactor_.size(); ++l)
      bwfactor_[l] = snap_->bwfactor(static_cast<topo::LinkId>(l));
    bwfactor_valid_ = true;
  }
  return bwfactor_;
}

namespace {

std::vector<topo::LinkId> sorted_by(const topo::TopologyGraph& g,
                                    const std::vector<double>& key) {
  // Sort packed (key, id) pairs rather than ids under an indirect
  // comparator: every comparison then reads adjacent memory instead of two
  // random key[] slots, which roughly halves the sort on million-link
  // fabrics. Ascending by (key, id) — pair ordering gives the id tie-break
  // directly, matching the "lowest link id among minima" rule of the
  // per-iteration min-edge scan it replaces (ids are unique, so this is
  // exactly the stable sort by key).
  std::vector<std::pair<double, topo::LinkId>> keyed;
  keyed.reserve(key.size());
  // Tombstoned links are not deletable edges: they are already gone.
  for (std::size_t l = 0; l < key.size(); ++l)
    if (!g.link_removed(static_cast<topo::LinkId>(l)))
      keyed.emplace_back(key[l], static_cast<topo::LinkId>(l));
  std::sort(keyed.begin(), keyed.end());
  std::vector<topo::LinkId> order;
  order.reserve(keyed.size());
  for (const auto& [k, l] : keyed) order.push_back(l);
  return order;
}

}  // namespace

const std::vector<topo::LinkId>& SelectionContext::links_by_bw() const {
  const auto& bw = link_bw();
  if (!by_bw_valid_) {
    by_bw_ = sorted_by(graph(), bw);
    order_builds().inc();
    by_bw_valid_ = true;
  }
  return by_bw_;
}

std::size_t SelectionContext::first_link_at_or_above(double min_bw_bps) const {
  const auto& order = links_by_bw();
  if (min_bw_bps <= 0.0) return 0;
  const auto& bw = link_bw();
  auto it = std::lower_bound(order.begin(), order.end(), min_bw_bps,
                             [&](topo::LinkId l, double v) {
                               return bw[static_cast<std::size_t>(l)] < v;
                             });
  return static_cast<std::size_t>(it - order.begin());
}

const std::vector<topo::LinkId>& SelectionContext::links_by_fraction(
    const SelectionOptions& opt) const {
  if (opt.reference_bw > 0.0) return links_by_bw();
  const auto& f = link_bwfactor();
  if (!by_bwfactor_valid_) {
    by_bwfactor_ = sorted_by(graph(), f);
    order_builds().inc();
    by_bwfactor_valid_ = true;
  }
  return by_bwfactor_;
}

const topo::Components& SelectionContext::base_components() const {
  revalidate();
  if (!base_comps_) {
    base_comps_ =
        std::make_unique<topo::Components>(topo::connected_components(graph()));
  }
  return *base_comps_;
}

void SelectionContext::ensure_layout() const {
  // Each revalidates first; rows_ is maintained alongside.
  (void)link_bw();
  (void)link_bwfactor();
  (void)flat();
  const auto start = graph().adjacency().start;
  const std::size_t n = graph().node_count();
  if (slot_of_.empty() && n > 0) {
    slot_of_.assign(n, -1);
    stored_count_ = 0;
    for (std::size_t v = 0; v < n; ++v)
      if (start[v + 1] - start[v] >= 2)
        slot_of_[v] = static_cast<std::int32_t>(stored_count_++);
  }
  if (rows_.size() != n) rows_.resize(n);
}

void SelectionContext::drop_rows() const {
  std::size_t built = 0;
  for (const auto& row : rows_)
    if (row) ++built;
  if (built) rows_invalidated_full().inc(built);
  rows_.clear();
  slot_of_.clear();
  stored_count_ = 0;
}

std::unique_ptr<SelectionContext::Cell[]> SelectionContext::build_row(
    topo::NodeId src) const {
  // topo::bottleneck_row's BFS over the graph's CSR with the unstored nodes
  // left out of the FIFO: such a node (other than the source) has no link
  // but the one it was discovered through, so it discovers nothing, and
  // dropping it from the queue leaves every stored node's parent, hence its
  // values, unchanged. Reads derive it from its parent's cell. A half-edge
  // reads only its far end (nbr_) and that end's slot until it discovers a
  // node; the link and its weights are read on a discovery only.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto adj = graph().adjacency();
  const auto links = graph().links();
  auto cells = std::make_unique<Cell[]>(stored_count_);
  std::vector<topo::NodeId> fifo;
  fifo.reserve(stored_count_ + 1);
  fifo.push_back(src);
  for (std::size_t head = 0; head < fifo.size(); ++head) {
    const topo::NodeId u = fifo[head];
    const auto iu = static_cast<std::size_t>(u);
    double ub = kInf;
    double ub2 = kInf;
    double ulat = 0.0;
    if (u != src) {
      const Cell& uc = cells[slot_of_[iu]];
      ub = uc.bottleneck;
      ub2 = uc.bottleneck2;
      ulat = uc.latency;
    }
    const auto lo = static_cast<std::size_t>(adj.start[iu]);
    const auto hi = static_cast<std::size_t>(adj.start[iu + 1]);
    for (std::size_t e = lo; e < hi; ++e) {
      const topo::NodeId w = nbr_[e];
      const std::int32_t sw = slot_of_[static_cast<std::size_t>(w)];
      if (sw < 0 || w == src) continue;
      Cell& c = cells[sw];
      if (c.tree_link != topo::kInvalidLink) continue;
      const topo::LinkId l = adj.link[e];
      const auto il = static_cast<std::size_t>(l);
      c.tree_link = l;
      c.bottleneck = std::min(ub, bw_[il]);
      c.bottleneck2 = std::min(ub2, bwfactor_[il]);
      c.latency = ulat + links[il].latency;
      fifo.push_back(w);
    }
  }
  return cells;
}

SelectionContext::PairRow SelectionContext::pair_row(topo::NodeId src) const {
  if (src < 0 || static_cast<std::size_t>(src) >= graph().node_count())
    throw std::out_of_range("pair_row: source out of range");
  ensure_layout();
  auto& slot = rows_[static_cast<std::size_t>(src)];
  if (!slot) {
    row_misses().inc();
    slot = build_row(src);
  } else {
    row_hits().inc();
  }
  PairRow r;
  r.src_ = src;
  r.cells_ = slot.get();
  r.slot_of_ = slot_of_.data();
  const auto adj = graph().adjacency();
  r.adj_start_ = adj.start.data();
  r.adj_link_ = adj.link.data();
  r.links_ = graph().links().data();
  r.bw_ = bw_.data();
  r.bwfactor_ = bwfactor_.data();
  return r;
}

std::vector<char> SelectionContext::eligibility(
    const SelectionOptions& opt) const {
  std::vector<char> out(graph().node_count(), 0);
  for (std::size_t i = 0; i < out.size(); ++i)
    if (node_eligible(*snap_, static_cast<topo::NodeId>(i), opt)) out[i] = 1;
  return out;
}

}  // namespace netsel::select
