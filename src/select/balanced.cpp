// Figure 3 of the paper: greedy balanced computation + communication
// optimisation — select m nodes maximising
//
//     minresource = min( mincpu / cpu_priority, minbw / bw_priority )
//
// where mincpu is the minimum fractional cpu among the selected nodes and
// minbw is the minimum fractional available bandwidth among the edges of the
// surviving component (the paper's definition; with steiner_restricted, only
// edges on paths between the selected nodes count — an ablation variant).
//
// The algorithm starts from the max-compute selection and repeatedly removes
// the minimum-fractional-bandwidth edge, accepting a new node set whenever
// that raises minresource, and stops at the first iteration that brings no
// improvement (or, with exhaustive_balanced, when no component can host the
// application).
//
// Fast path: the component history of the deletion sweep is a laminar
// family. Replaying the deletion sequence backwards as insertions through a
// union-find yields a binary merge forest whose nodes are exactly the
// components that ever exist during the forward sweep. The forward sweep
// then needs to evaluate only the components that *changed* at each
// deletion: any unchanged component was already compared against `best`
// when it last changed and `best` never decreases, so it can never win
// later under the strict-improvement rule.
//
// On acyclic graphs every deletion splits a component and each component's
// min-fraction is constant over its lifetime (all its internal links
// outlive it), so the only events are splits. On cyclic graphs — the
// datacenter fat-trees and core--edge fabrics of topo/synthetic.hpp — a
// deletion may instead remove a *cycle* link: the component's membership
// (hence its top-m and feasibility) is unchanged, but its internal
// min-fraction rises to the next-surviving internal link's. Because the
// deletion sequence is sorted ascending by fraction and the reverse replay
// inserts it back-to-front, a component's min-fraction internal link is
// always its most recently inserted one; tracking the minimum deletion-
// sequence position per live reverse component therefore gives, for every
// cycle insertion, the exact min-fraction the component assumes after the
// corresponding forward deletion. Each forward step then processes one
// recorded event — a split (evaluate the two newborn halves) or a cycle
// (re-evaluate the one surviving component with its raised min-fraction).
//
// That turns O(E) component sweeps each doing O(V+E) work into one
// near-linear replay plus one O(1) candidate evaluation per event (the
// winner's m nodes are copied and sorted once, after the sweep) —
// bit-identical to detail::reference_select_balanced (the literal loop,
// still used for the Steiner ablation, whose bandwidth term is not a
// per-component constant); see tests/test_select_context.cpp.

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "select/algorithms.hpp"
#include "select/context.hpp"
#include "select/detail.hpp"
#include "select/objective.hpp"
#include "select/obs.hpp"
#include "select/reference.hpp"
#include "topo/connectivity.hpp"

namespace netsel::select {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// A deletion-order position that names no link.
constexpr std::int32_t kNoPos = -1;
/// The first word of a deletion-order slot the min-bandwidth filter drops
/// (see Slot). No event takes this value: ~kSkipped exceeds every forest
/// index.
constexpr std::int32_t kSkipped = std::numeric_limits<std::int32_t>::min();

/// A component in the merge forest: either a single node (leaf; forest
/// index i < V is node i) or the union of two components merged by the link
/// whose forward deletion splits it. Only the merge nodes are stored; a
/// leaf's record is derived when it is read (MergeForest::node). A merge
/// node keeps no child ids: the slot of its link records the two halves.
struct ForestNode {
  int eligible = 0;
  /// Deletion-order position of the component's min-fraction internal
  /// link; kNoPos for leaves, whose fraction is +inf, matching
  /// detail::min_fraction_in_component on lone nodes. Read through the
  /// order (see DeletionOrder::frac_at).
  std::int32_t min_pos = kNoPos;
  /// The component's m best eligible nodes ordered by (cpu desc, id asc) —
  /// exactly the prefix detail::top_m_by_cpu's stable sort would produce.
  /// Built bottom-up: a node in the parent's top-m is necessarily in its
  /// child's top-m, so merging the children's lists (capped at m) is exact.
  /// Stored as an (offset, len) slice of one shared pool (TopPool) rather
  /// than a per-node vector: the replay creates up to V-1 merge nodes, and
  /// that many small vectors dominate its time and memory at the
  /// million-node scale. When a merge takes every element from one child the
  /// parent *shares* the child's slice (no copy) — children are immutable
  /// once merged.
  std::int32_t top_len = 0;
  std::int64_t top_off = 0;
};
// The replay holds up to V-1 of these: at the million-node scale every
// byte costs 1 MB of peak memory.
static_assert(sizeof(ForestNode) == 24);

/// The shared storage of every ForestNode top slice. An offset below V (the
/// leaf count) names a leaf's slice, which holds at most that leaf's own
/// node and is stored nowhere; offset V + k starts at ids[k].
struct TopPool {
  std::size_t leaves;
  std::vector<topo::NodeId> ids;

  /// Element k of forest node `fn`'s top slice.
  topo::NodeId at(const ForestNode& fn, std::size_t k) const {
    const auto off = static_cast<std::size_t>(fn.top_off);
    return off < leaves ? static_cast<topo::NodeId>(off)
                        : ids[off - leaves + k];
  }
};

/// The merge forest of a replay over V nodes. Index f < V is the leaf of
/// node f: eligible = elig[f], min_pos = kNoPos, and top slice
/// (f, elig[f] ? 1 : 0), which TopPool reads as node f itself. Merge nodes
/// are stored from index V on.
struct MergeForest {
  const std::vector<char>& elig;
  std::vector<ForestNode> merges;

  std::size_t leaves() const { return elig.size(); }
  std::size_t size() const { return leaves() + merges.size(); }
  ForestNode node(int f) const {
    const auto i = static_cast<std::size_t>(f);
    if (i >= leaves()) return merges[i - leaves()];
    ForestNode leaf;
    leaf.eligible = elig[i] ? 1 : 0;
    leaf.top_len = leaf.eligible;
    leaf.top_off = static_cast<std::int64_t>(i);
    return leaf;
  }
  /// A stored merge node (f >= V), for the cycle events' min_pos updates.
  ForestNode& merge(int f) {
    return merges[static_cast<std::size_t>(f) - leaves()];
  }
};

/// One deletion-order position. The gather writes the link's endpoints;
/// the reverse step that reads them overwrites the slot with what the
/// forward deletion at this position does. A split writes the forest
/// indices of its two halves (both >= 0), in ascending order of their
/// smallest member; a cycle link of forest node f writes ~f and the min_pos
/// its deletion restores. A slot the min-bandwidth filter drops keeps
/// first == kSkipped, and neither pass acts on it.
struct Slot {
  std::int32_t first = kSkipped;  ///< endpoint a until the reverse step
  std::int32_t second = kNoPos;   ///< endpoint b until the reverse step
};

/// Union-find over the replay's nodes with one int32 per node: a non-root
/// holds its parent's id, a root ~(the forest index of its component), so
/// the merge forest needs no root-to-node map. A union keeps the smaller
/// root, so every root is its component's smallest member; path halving
/// keeps the finds short.
class ForestUnionFind {
 public:
  /// Every node starts as its own component, the leaf of the same index.
  explicit ForestUnionFind(std::size_t n) : up_(n) {
    for (std::size_t i = 0; i < n; ++i) up_[i] = ~static_cast<std::int32_t>(i);
  }

  topo::NodeId find(topo::NodeId n) {
    while (up_[idx(n)] >= 0) {  // path halving
      const topo::NodeId p = up_[idx(n)];
      if (up_[idx(p)] < 0) return p;
      up_[idx(n)] = up_[idx(p)];
      n = up_[idx(n)];
    }
    return n;
  }
  /// True when node `n` roots its component.
  bool is_root(topo::NodeId n) const { return up_[idx(n)] < 0; }
  /// The forest index of the component rooted at `root`.
  int forest(topo::NodeId root) const { return ~up_[idx(root)]; }
  /// Merge the components rooted at lo < hi into forest node `f`, rooted
  /// at lo.
  void unite(topo::NodeId lo, topo::NodeId hi, int f) {
    up_[idx(hi)] = lo;
    up_[idx(lo)] = ~f;
  }

 private:
  static std::size_t idx(topo::NodeId n) { return static_cast<std::size_t>(n); }
  std::vector<std::int32_t> up_;
};

/// The deletion order and the fractions it is sorted by, read in place.
struct DeletionOrder {
  const std::vector<topo::LinkId>& links;
  const std::vector<double>& frac;

  /// The fraction of the link at position `pos`; +inf for kNoPos.
  double frac_at(std::int32_t pos) const {
    return pos == kNoPos
               ? kInf
               : frac[static_cast<std::size_t>(
                     links[static_cast<std::size_t>(pos)])];
  }
};

/// The best component seen so far in the forward sweep. Only its forest
/// index is kept: its node list is materialised once, after the sweep.
/// `minbw` is recorded at evaluation time because a cycle event later in the
/// sweep may move the forest node's min_pos.
struct Candidate {
  int forest = -1;
  double mincpu = 0.0;
  double minbw = 0.0;
  double minresource = -kInf;
};

/// Score forest node `f` in O(1): its top slice is ordered by (cpu desc,
/// id asc), so the minimum cpu is the last element's, and the component's
/// bandwidth term is the fraction at its current min_pos.
Candidate evaluate_forest_node(const std::vector<double>& cpu,
                               const DeletionOrder& order,
                               const SelectionOptions& opt,
                               const MergeForest& forest, const TopPool& pool,
                               int f) {
  const ForestNode fn = forest.node(f);
  Candidate cand;
  cand.forest = f;
  cand.mincpu = cpu[static_cast<std::size_t>(
      pool.at(fn, static_cast<std::size_t>(fn.top_len) - 1))];
  cand.minbw = order.frac_at(fn.min_pos);
  cand.minresource =
      std::min(cand.mincpu / opt.cpu_priority, cand.minbw / opt.bw_priority);
  return cand;
}

/// Merge the children's (cpu desc, id asc)-ordered top lists, keeping the
/// first m, into `out`'s slice of `pool`. The key is a strict total order
/// (ids are unique), so this is exactly the prefix a stable sort of the
/// concatenated membership would yield. When one child contributes nothing
/// the result is the other child's slice verbatim, shared instead of copied
/// (children stay immutable once merged).
void merge_top(const std::vector<double>& cpu, TopPool& pool,
               const ForestNode& a, const ForestNode& b, std::size_t m,
               ForestNode& out) {
  auto before = [&](topo::NodeId x, topo::NodeId y) {
    const double cx = cpu[static_cast<std::size_t>(x)];
    const double cy = cpu[static_cast<std::size_t>(y)];
    return cx > cy || (cx == cy && x < y);
  };
  const auto alen = static_cast<std::size_t>(a.top_len);
  const auto blen = static_cast<std::size_t>(b.top_len);
  auto share = [&](const ForestNode& c) {
    out.top_off = c.top_off;
    out.top_len = c.top_len;
  };
  // Share when the other child cannot place an element among the first m:
  // it is empty, or this child is already full and its last (worst) element
  // still precedes the other's best.
  if (blen == 0 ||
      (alen == m && before(pool.at(a, alen - 1), pool.at(b, 0)))) {
    share(a);
    return;
  }
  if (alen == 0 ||
      (blen == m && before(pool.at(b, blen - 1), pool.at(a, 0)))) {
    share(b);
    return;
  }
  const std::size_t want = std::min(m, alen + blen);
  const std::size_t start = pool.ids.size();
  out.top_off = static_cast<std::int64_t>(pool.leaves + start);
  out.top_len = static_cast<std::int32_t>(want);
  std::size_t i = 0, j = 0;
  // Index the pool on every read: push_back may reallocate mid-merge.
  while (pool.ids.size() - start < want) {
    if (j >= blen || (i < alen && before(pool.at(a, i), pool.at(b, j)))) {
      pool.ids.push_back(pool.at(a, i));
      ++i;
    } else {
      pool.ids.push_back(pool.at(b, j));
      ++j;
    }
  }
}

SelectionResult select_balanced_forest(const SelectionContext& ctx,
                                       const SelectionOptions& opt) {
  const auto& snap = ctx.snapshot();
  const auto& g = ctx.graph();
  const int m = opt.num_nodes;

  auto elig = ctx.eligibility(opt);

  // The deletion order: links ascending by (fraction, id) — the order
  // min_fraction_link produces; the gather below skips those failing the
  // fixed min-bandwidth requirement. By default that is the context's cached
  // bwfactor order, read in place with the context's bwfactor array. With a
  // reference capacity the fraction bw / reference_bw is monotone in bw, so
  // the context's cached (bw, id) order is already ascending by fraction;
  // but two distinct bandwidths may round to one fraction, and there the id
  // tie-break must decide, so a copy has those runs re-sorted by id.
  const bool by_reference = opt.reference_bw > 0.0;
  std::vector<double> ref_frac;
  std::vector<topo::LinkId> ref_order;
  if (by_reference) {
    ref_frac.resize(g.link_count());
    for (std::size_t l = 0; l < ref_frac.size(); ++l)
      ref_frac[l] = link_fraction(snap, static_cast<topo::LinkId>(l), opt);
    ref_order = ctx.links_by_bw();
    const auto frac_of = [&](topo::LinkId l) {
      return ref_frac[static_cast<std::size_t>(l)];
    };
    for (auto run = ref_order.begin(); run != ref_order.end();) {
      auto end = run + 1;
      while (end != ref_order.end() && frac_of(*end) == frac_of(*run)) ++end;
      if (!std::is_sorted(run, end)) std::sort(run, end);
      run = end;
    }
  }
  const auto& order = by_reference ? ref_order : ctx.links_by_fraction(opt);
  const auto& frac = by_reference ? ref_frac : ctx.link_bwfactor();
  const DeletionOrder deletion{order, frac};

  // Per-call cpu keys (they depend on reference_cpu_capacity); only eligible
  // nodes are ever ranked, the rest stay 0.
  const std::size_t V = g.node_count();
  std::vector<double> cpu(V, 0.0);
  for (std::size_t n = 0; n < V; ++n)
    if (elig[n]) cpu[n] = node_cpu(snap, static_cast<topo::NodeId>(n), opt);

  // Gather each position's endpoints once, in deletion order: the replay
  // walks the order back-to-front with dependent union-find work per step,
  // and random g.link() loads on that critical path stall it at the
  // million-link scale. Gathering first lets the misses overlap; the replay
  // then streams the slots sequentially. Links failing the fixed
  // min-bandwidth requirement keep their default slot, marked skipped, so
  // positions index the order itself.
  std::vector<Slot> slots(order.size());
  std::size_t steps = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const topo::LinkId l = order[i];
    if (opt.min_bw_bps > 0.0 && snap.bw(l) < opt.min_bw_bps) continue;
    const topo::Link& lk = g.link(l);
    slots[i] = {lk.a, lk.b};
    ++steps;
  }

  // Reverse replay: insert links back-to-front. Forward step i deletes the
  // link at order position i, and slots[i] records what that does: it
  // splits a forest node into the two halves the slot names, or, for a
  // cycle link, leaves the membership of forest node f = ~first unchanged
  // and moves its min_pos back to second. A live reverse component's
  // min_pos is the minimum order position among its internal links:
  // insertions run back-to-front over an ascending-fraction order, so the
  // most recent internal insertion is both the position minimum and the
  // fraction minimum, and forward deletion of a cycle link restores the
  // minimum from before its insertion.
  // A merge joins two components, so there are at most V - 1 of them.
  MergeForest forest{elig, {}};
  forest.merges.reserve(std::min(V, steps));
  const auto mm = static_cast<std::size_t>(m);
  // Slice sharing on lopsided merges keeps the pool near
  // sum(min(m, subtree-eligible)) rather than m per forest node.
  TopPool pool{V, {}};
  pool.ids.reserve(steps);
  ForestUnionFind uf(V);
  for (std::size_t i = slots.size(); i-- > 0;) {
    Slot& slot = slots[i];
    if (slot.first == kSkipped) continue;
    // The slot still holds the link's endpoints; both branches below
    // overwrite it with the event.
    const topo::NodeId ra = uf.find(slot.first);
    const topo::NodeId rb = uf.find(slot.second);
    const auto pos = static_cast<std::int32_t>(i);
    if (ra == rb) {
      // Cycle link: membership unchanged; forward deletion raises the
      // component's min-fraction to its next-surviving internal link's.
      // The component is a merge node, never a leaf: both ends of a link in
      // one single-node component would make it a self-loop, which add_link
      // rejects.
      const int f = uf.forest(ra);
      ForestNode& fn = forest.merge(f);
      slot = {~f, fn.min_pos};
      fn.min_pos = pos;
      continue;
    }
    // Each root is its component's smallest member, so lo's half is the
    // one the literal loop numbers first.
    const topo::NodeId lo = std::min(ra, rb);
    const topo::NodeId hi = std::max(ra, rb);
    const int flo = uf.forest(lo);
    const int fhi = uf.forest(hi);
    const ForestNode nlo = forest.node(flo);
    const ForestNode nhi = forest.node(fhi);
    ForestNode fn;
    fn.eligible = nlo.eligible + nhi.eligible;
    // Position i precedes every already-inserted internal link in the
    // ascending deletion order, so it is the new component's minimum.
    fn.min_pos = pos;
    merge_top(cpu, pool, nlo, nhi, mm, fn);
    const int idx = static_cast<int>(forest.size());
    forest.merges.push_back(fn);
    uf.unite(lo, hi, idx);
    slot = {flo, fhi};
  }

  SelectionResult result;

  // Score forest node f and keep it when it strictly beats `best` (the
  // Fig. 3 acceptance rule).
  Candidate best;
  auto improves = [&](int f) {
    const Candidate c =
        evaluate_forest_node(cpu, deletion, opt, forest, pool, f);
    if (!(c.minresource > best.minresource)) return false;
    best = c;
    return true;
  };

  // Forward sweep, step 0: evaluate every feasible initial component, one
  // per union-find root. A root is its component's smallest member, so the
  // id-order scan meets them in the order connected_components numbers
  // them.
  int feasible_live = 0;
  for (topo::NodeId n = 0; static_cast<std::size_t>(n) < V; ++n) {
    if (!uf.is_root(n)) continue;
    const int f = uf.forest(n);
    if (forest.node(f).eligible < m) continue;
    ++feasible_live;
    improves(f);
  }
  if (best.forest == -1) {
    result.note = "no component with enough eligible nodes";
    return result;
  }

  // Each deletion i changes exactly one component — it either splits
  // (evaluate the two newborn halves, in the slot's order, which is the
  // literal loop's component-id order) or loses a cycle link (re-evaluate
  // it with its raised min-fraction; membership and feasibility are
  // unchanged). Only changed components can beat `best` (see header
  // comment).
  for (const Slot& slot : slots) {
    if (slot.first == kSkipped) continue;
    ++result.iterations;
    bool newsetflag = false;
    if (slot.first >= 0) {
      const int halves[] = {slot.first, slot.second};
      const int eligible =
          forest.node(halves[0]).eligible + forest.node(halves[1]).eligible;
      if (eligible >= m) --feasible_live;
      for (int f : halves) {
        if (forest.node(f).eligible < m) continue;
        ++feasible_live;
        if (improves(f)) newsetflag = true;
      }
    } else {
      ForestNode& fn = forest.merge(~slot.first);
      fn.min_pos = slot.second;
      if (fn.eligible >= m && improves(~slot.first)) newsetflag = true;
    }
    if (opt.exhaustive_balanced ? feasible_live == 0 : !newsetflag) break;
  }

  // The winner's top slice is immutable once merged, so copying it now
  // yields the set it held when it won; top_m_by_cpu returns its selection
  // ascending by id.
  const ForestNode win = forest.node(best.forest);
  result.feasible = true;
  for (std::size_t k = 0; k < static_cast<std::size_t>(win.top_len); ++k)
    result.nodes.push_back(pool.at(win, k));
  std::sort(result.nodes.begin(), result.nodes.end());
  result.min_cpu = best.mincpu;
  result.min_bw_fraction = best.minbw;
  result.objective = best.minresource;
  return result;
}

}  // namespace

SelectionResult select_balanced(const SelectionContext& ctx,
                                const SelectionOptions& opt) {
  detail::selections_counter().inc();
  obs::ScopedTimer timer(detail::criterion_latency_hist(Criterion::Balanced));
  validate_options(ctx.snapshot(), opt);
  // The merge-forest replay handles cyclic graphs via cycle events; only
  // the Steiner ablation — whose bandwidth term is re-derived per candidate
  // rather than being a per-component constant — falls back to the literal
  // Fig. 3 loop.
  if (opt.steiner_restricted)
    return detail::reference_select_balanced(ctx.snapshot(), opt);
  return select_balanced_forest(ctx, opt);
}

SelectionResult select_balanced(const remos::NetworkSnapshot& snap,
                                const SelectionOptions& opt) {
  SelectionContext ctx(snap);
  return select_balanced(ctx, opt);
}

}  // namespace netsel::select
