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
#include "select/prune.hpp"
#include "select/reference.hpp"
#include "topo/connectivity.hpp"

namespace netsel::select {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// A deletion-order position that names no link.
constexpr std::int32_t kNoPos = -1;
/// The event of a deletion-order slot the min-bandwidth filter drops (see
/// Slot). No real event takes this value: ~kSkipped exceeds every forest
/// index.
constexpr std::int32_t kSkipped = std::numeric_limits<std::int32_t>::min();

/// A component in the merge forest: either a single node (leaf; forest
/// index i < V is node i) or the union of two children merged by the link
/// whose forward deletion splits it. Only the merge nodes are stored; a
/// leaf's record is derived when it is read (MergeForest::node).
struct ForestNode {
  int left = -1;
  int right = -1;
  int eligible = 0;
  topo::NodeId min_id = topo::kInvalidNode;
  /// Deletion-order position of the component's min-fraction internal
  /// link; kNoPos for leaves, whose fraction is +inf, matching
  /// detail::min_fraction_in_component on lone nodes. Read through the
  /// order (see DeletionOrder::frac_at).
  std::int32_t min_pos = kNoPos;
  /// The component's m best eligible nodes ordered by (cpu desc, id asc) —
  /// exactly the prefix detail::top_m_by_cpu's stable sort would produce.
  /// Built bottom-up: a node in the parent's top-m is necessarily in its
  /// child's top-m, so merging the children's lists (capped at m) is exact.
  /// Stored as an (offset, len) slice of one shared pool rather than a
  /// per-node vector: the replay creates up to V-1 merge nodes, and that
  /// many small vectors dominate its time and memory at the million-node
  /// scale. When a merge takes every element from one child the parent
  /// *shares* the child's slice (no copy) — children are immutable once
  /// merged.
  std::int32_t top_len = 0;
  std::int64_t top_off = 0;
};
// The replay holds up to V-1 of these: at the million-node scale every
// byte costs 1 MB of peak memory.
static_assert(sizeof(ForestNode) == 32);

/// The merge forest of a replay over V nodes. Index f < V is the leaf of
/// node f: eligible = elig[f], min_id = f, min_pos = kNoPos, and top slice
/// (f, cand[f] ? 1 : 0), which reads node f itself because the first V
/// entries of top_pool are the ids 0..V-1. Storing no leaf records saves
/// V x 32 bytes for at most V extra pool ids. Merge nodes are stored from
/// index V on.
struct MergeForest {
  const std::vector<char>& elig;
  const std::vector<char>& cand;
  std::vector<ForestNode> merges;

  std::size_t leaves() const { return elig.size(); }
  std::size_t size() const { return leaves() + merges.size(); }
  ForestNode node(int f) const {
    const auto i = static_cast<std::size_t>(f);
    if (i >= leaves()) return merges[i - leaves()];
    ForestNode leaf;
    leaf.eligible = elig[i] ? 1 : 0;
    leaf.min_id = static_cast<topo::NodeId>(f);
    leaf.top_len = cand[i] ? 1 : 0;
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
/// forward deletion at this position does: `event` is the forest node it
/// splits (>= 0), or ~f for a cycle link of forest node f, and `fallback`
/// is the min_pos a cycle deletion restores (kNoPos after a split). A slot
/// the min-bandwidth filter drops keeps event == kSkipped, and neither pass
/// acts on it.
struct Slot {
  std::int32_t event = kSkipped;  ///< endpoint a until the reverse step
  std::int32_t fallback = kNoPos;  ///< endpoint b until the reverse step
};

/// Union-find over the replay's nodes with one int32 per node: a non-root
/// holds its parent's id, a root ~(the forest index of its component), so
/// the merge forest needs no root-to-node map. Union by size plus path
/// halving. Which root survives a union changes only the union-find's
/// shape, never the forest.
class ForestUnionFind {
 public:
  /// Every node starts as its own component, the leaf of the same index.
  explicit ForestUnionFind(std::size_t n) : up_(n), size_(n, 1) {
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
  /// Merge the components rooted at ra != rb into forest node `f`.
  void unite(topo::NodeId ra, topo::NodeId rb, int f) {
    if (size_[idx(ra)] < size_[idx(rb)]) std::swap(ra, rb);
    up_[idx(rb)] = ra;
    size_[idx(ra)] += size_[idx(rb)];
    up_[idx(ra)] = ~f;
  }

 private:
  static std::size_t idx(topo::NodeId n) { return static_cast<std::size_t>(n); }
  std::vector<std::int32_t> up_;
  std::vector<std::int32_t> size_;
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
                               const MergeForest& forest,
                               const std::vector<topo::NodeId>& top_pool,
                               int f) {
  const ForestNode fn = forest.node(f);
  Candidate cand;
  cand.forest = f;
  cand.mincpu = cpu[static_cast<std::size_t>(
      top_pool[static_cast<std::size_t>(fn.top_off + fn.top_len - 1)])];
  cand.minbw = order.frac_at(fn.min_pos);
  cand.minresource =
      std::min(cand.mincpu / opt.cpu_priority, cand.minbw / opt.bw_priority);
  return cand;
}

/// Merge the children's (cpu desc, id asc)-ordered top lists, keeping the
/// first m, into `out`'s slice of `top_pool`. The key is a strict total
/// order (ids are unique), so this is exactly the prefix a stable sort of
/// the concatenated membership would yield. When one child contributes
/// nothing the result is the other child's slice verbatim, shared instead
/// of copied (children stay immutable once merged).
void merge_top(const std::vector<double>& cpu,
               std::vector<topo::NodeId>& top_pool, const ForestNode& a,
               const ForestNode& b, std::size_t m, ForestNode& out) {
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
      (alen == m &&
       before(top_pool[static_cast<std::size_t>(a.top_off) + alen - 1],
              top_pool[static_cast<std::size_t>(b.top_off)]))) {
    share(a);
    return;
  }
  if (alen == 0 ||
      (blen == m &&
       before(top_pool[static_cast<std::size_t>(b.top_off) + blen - 1],
              top_pool[static_cast<std::size_t>(a.top_off)]))) {
    share(b);
    return;
  }
  const std::size_t want = std::min(m, alen + blen);
  const std::size_t start = top_pool.size();
  out.top_off = static_cast<std::int64_t>(start);
  out.top_len = static_cast<std::int32_t>(want);
  std::size_t i = 0, j = 0;
  // Index the pool on every read: push_back may reallocate mid-merge.
  while (top_pool.size() - start < want) {
    const auto ai = static_cast<std::size_t>(a.top_off) + i;
    const auto bj = static_cast<std::size_t>(b.top_off) + j;
    if (j >= blen || (i < alen && before(top_pool[ai], top_pool[bj]))) {
      top_pool.push_back(top_pool[ai]);
      ++i;
    } else {
      top_pool.push_back(top_pool[bj]);
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
  // Feasibility (ForestNode::eligible, feasible_live) uses the full eligible
  // set; the top-m ranking lists drop dominated candidates
  // (winner-preserving, see select/prune.hpp).
  const auto cand = dominated_candidate_mask(snap, opt, elig);

  // The deletion order: links ascending by (fraction, id) — the order
  // min_fraction_link produces; the gather below skips those failing the
  // fixed min-bandwidth requirement. By default that is the context's cached
  // bwfactor order, read in place with the context's bwfactor array. With a
  // reference capacity the fraction is a *rounded* multiple of the absolute
  // bandwidth, so sort by the computed fractions rather than reusing the
  // absolute-bandwidth order (two bandwidths may round to equal fractions,
  // where the id tie-break kicks in).
  const bool by_reference = opt.reference_bw > 0.0;
  std::vector<double> ref_frac;
  std::vector<topo::LinkId> ref_order;
  if (by_reference) {
    ref_frac.resize(g.link_count());
    for (std::size_t l = 0; l < ref_frac.size(); ++l)
      ref_frac[l] = link_fraction(snap, static_cast<topo::LinkId>(l), opt);
    ref_order.reserve(g.link_count());
    for (std::size_t l = 0; l < g.link_count(); ++l)
      if (!g.link_removed(static_cast<topo::LinkId>(l)))
        ref_order.push_back(static_cast<topo::LinkId>(l));
    std::stable_sort(ref_order.begin(), ref_order.end(),
                     [&](topo::LinkId a, topo::LinkId b) {
                       return ref_frac[static_cast<std::size_t>(a)] <
                              ref_frac[static_cast<std::size_t>(b)];
                     });
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
  // splits the forest node event into its children, or, for a cycle link,
  // leaves the membership of forest node f = ~event unchanged and moves its
  // min_pos back to fallback. A live reverse component's min_pos is the
  // minimum order position among its internal links: insertions run
  // back-to-front over an ascending-fraction order, so the most recent
  // internal insertion is both the position minimum and the fraction
  // minimum, and forward deletion of a cycle link restores the minimum from
  // before its insertion.
  // A merge joins two components, so there are at most V - 1 of them.
  MergeForest forest{elig, cand, {}};
  forest.merges.reserve(std::min(V, steps));
  const auto mm = static_cast<std::size_t>(m);
  // Shared storage for every ForestNode::top slice: the leaf slices 0..V-1
  // first, then the merged ones. Slice sharing on lopsided merges keeps the
  // tail near sum(min(m, subtree-eligible)) rather than m per forest node.
  std::vector<topo::NodeId> top_pool;
  top_pool.reserve(V + steps);
  for (std::size_t i = 0; i < V; ++i)
    top_pool.push_back(static_cast<topo::NodeId>(i));
  ForestUnionFind uf(V);
  for (std::size_t i = slots.size(); i-- > 0;) {
    Slot& slot = slots[i];
    if (slot.event == kSkipped) continue;
    // The slot still holds the link's endpoints; both branches below
    // overwrite it with the event.
    const topo::NodeId ra = uf.find(slot.event);
    const topo::NodeId rb = uf.find(slot.fallback);
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
    const int fa = uf.forest(ra);
    const int fb = uf.forest(rb);
    const ForestNode na = forest.node(fa);
    const ForestNode nb = forest.node(fb);
    ForestNode fn;
    fn.left = fa;
    fn.right = fb;
    fn.eligible = na.eligible + nb.eligible;
    fn.min_id = std::min(na.min_id, nb.min_id);
    // Position i precedes every already-inserted internal link in the
    // ascending deletion order, so it is the new component's minimum.
    fn.min_pos = pos;
    merge_top(cpu, top_pool, na, nb, mm, fn);
    const int idx = static_cast<int>(forest.size());
    forest.merges.push_back(fn);
    uf.unite(ra, rb, idx);
    slot = {idx, kNoPos};
  }

  // Initial components, one per union-find root, in the order
  // connected_components numbers them (ascending smallest member id).
  std::vector<int> roots;
  for (topo::NodeId n = 0; static_cast<std::size_t>(n) < V; ++n)
    if (uf.is_root(n)) roots.push_back(uf.forest(n));
  std::sort(roots.begin(), roots.end(), [&](int a, int b) {
    return forest.node(a).min_id < forest.node(b).min_id;
  });

  SelectionResult result;

  // Score forest node f and keep it when it strictly beats `best` (the
  // Fig. 3 acceptance rule).
  Candidate best;
  auto improves = [&](int f) {
    const Candidate c =
        evaluate_forest_node(cpu, deletion, opt, forest, top_pool, f);
    if (!(c.minresource > best.minresource)) return false;
    best = c;
    return true;
  };

  // Forward sweep, step 0: evaluate every feasible initial component.
  int feasible_live = 0;
  for (int f : roots) {
    if (forest.node(f).eligible < m) continue;
    ++feasible_live;
    improves(f);
  }
  if (best.forest == -1) {
    result.note = "no component with enough eligible nodes";
    return result;
  }

  // Each deletion i changes exactly one component — it either splits
  // (evaluate the two newborn halves, in ascending-min-id order to match
  // the literal loop's component-id order) or loses a cycle link
  // (re-evaluate it with its raised min-fraction; membership and
  // feasibility are unchanged). Only changed components can beat `best`
  // (see header comment).
  for (const Slot& slot : slots) {
    if (slot.event == kSkipped) continue;
    ++result.iterations;
    bool newsetflag = false;
    if (const int d = slot.event; d >= 0) {
      const ForestNode& split = forest.merge(d);
      int a = split.left;
      int b = split.right;
      if (forest.node(a).min_id > forest.node(b).min_id) std::swap(a, b);
      if (split.eligible >= m) --feasible_live;
      for (int f : {a, b}) {
        if (forest.node(f).eligible < m) continue;
        ++feasible_live;
        if (improves(f)) newsetflag = true;
      }
    } else {
      ForestNode& fn = forest.merge(~d);
      fn.min_pos = slot.fallback;
      if (fn.eligible >= m && improves(~d)) newsetflag = true;
    }
    if (opt.exhaustive_balanced ? feasible_live == 0 : !newsetflag) break;
  }

  // The winner's top slice is immutable once merged, so copying it now
  // yields the set it held when it won; top_m_by_cpu returns its selection
  // ascending by id.
  const ForestNode win = forest.node(best.forest);
  const auto lo = static_cast<std::ptrdiff_t>(win.top_off);
  result.feasible = true;
  result.nodes.assign(top_pool.begin() + lo, top_pool.begin() + lo + win.top_len);
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
