#include "select/prune.hpp"

#include <algorithm>
#include <optional>

#include "obs/metrics.hpp"

namespace netsel::select {

namespace {

obs::Counter& dropped_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.prune.dropped");
  return c;
}

/// Pruning is an optimisation that is always allowed to under-prune: groups
/// larger than this skip the quadratic dominator count rather than risk
/// O(k^2) work on a 10k-host star.
constexpr std::size_t kMaxGroupSize = 4096;


struct GroupEntry {
  topo::NodeId node;
  topo::LinkId link;
  double bw;
  double frac;
  double cpu;
};

/// The top_m_by_cpu ranking order: (cpu desc, id asc).
bool rank_before(const GroupEntry& a, const GroupEntry& b) {
  return a.cpu > b.cpu || (a.cpu == b.cpu && a.node < b.node);
}

/// A's link strictly follows B's in an ascending (key, link id) deletion
/// order, i.e. A's link survives at least as long as B's.
bool outlives(double key_a, topo::LinkId la, double key_b, topo::LinkId lb) {
  return key_a > key_b || (key_a == key_b && la > lb);
}

/// Eligible degree-1 hosts bucketed by attachment node: flat
/// count/prefix/fill grouping (one contiguous entry array), shared by both
/// masks. Entries of anchor a live in entries[head[a] .. head[a+1]).
struct LeafGroups {
  std::vector<std::int32_t> head;
  std::vector<GroupEntry> entries;
};

/// Build the grouping, or return std::nullopt when no anchor holds more
/// than m (and at most kMaxGroupSize) eligible leaves — the key lookups
/// (bw/fraction/cpu) are the expensive part, so they are skipped entirely
/// in the common nothing-to-prune case.
std::optional<LeafGroups> group_eligible_leaves(
    const remos::NetworkSnapshot& snap, const SelectionOptions& opt,
    const std::vector<char>& eligible, std::size_t m) {
  const auto& g = snap.graph();
  const std::size_t V = g.node_count();
  LeafGroups groups;
  groups.head.assign(V + 1, 0);
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    if (!eligible[i]) continue;
    auto n = static_cast<topo::NodeId>(i);
    auto links = g.links_of(n);
    if (links.size() != 1) continue;
    ++groups.head[static_cast<std::size_t>(g.other_end(links[0], n)) + 1];
  }
  bool any_prunable = false;
  for (std::size_t a = 1; a <= V && !any_prunable; ++a) {
    const auto sz = static_cast<std::size_t>(groups.head[a]);
    any_prunable = sz > m && sz <= kMaxGroupSize;
  }
  if (!any_prunable) return std::nullopt;
  for (std::size_t a = 0; a < V; ++a) groups.head[a + 1] += groups.head[a];
  groups.entries.resize(static_cast<std::size_t>(groups.head[V]));
  std::vector<std::int32_t> cursor(groups.head.begin(), groups.head.end() - 1);
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    if (!eligible[i]) continue;
    auto n = static_cast<topo::NodeId>(i);
    auto links = g.links_of(n);
    if (links.size() != 1) continue;
    GroupEntry e;
    e.node = n;
    e.link = links[0];
    e.bw = snap.bw(e.link);
    e.frac = link_fraction(snap, e.link, opt);
    e.cpu = node_cpu(snap, n, opt);
    const auto anchor = static_cast<std::size_t>(g.other_end(e.link, n));
    groups.entries[static_cast<std::size_t>(cursor[anchor]++)] = e;
  }
  return groups;
}

}  // namespace

std::vector<char> dominated_candidate_mask(const remos::NetworkSnapshot& snap,
                                           const SelectionOptions& opt,
                                           const std::vector<char>& eligible) {
  std::vector<char> cand = eligible;
  if (!opt.prune_dominated || opt.num_nodes < 2) return cand;
  // Candidate-count short-circuit: below the threshold the selection is
  // already sub-millisecond, so even a perfect prune cannot pay for its own
  // O(V + E) grouping pass (bench_scale measured pruned cold 3x *slower*
  // than unpruned on the 567-node fat-tree). Nothing is dropped, so the
  // winner is trivially preserved.
  if (opt.prune_min_candidates > 0) {
    std::size_t eligible_count = 0;
    for (char e : eligible) eligible_count += e ? 1 : 0;
    if (eligible_count < static_cast<std::size_t>(opt.prune_min_candidates))
      return cand;
  }
  const auto m = static_cast<std::size_t>(opt.num_nodes);
  const std::size_t V = snap.graph().node_count();

  auto groups = group_eligible_leaves(snap, opt, eligible, m);
  if (!groups) return cand;
  const auto& head = groups->head;
  const auto& entries = groups->entries;

  std::uint64_t dropped = 0;
  std::vector<GroupEntry> ranked;
  for (std::size_t a = 0; a < V; ++a) {
    const auto lo = static_cast<std::size_t>(head[a]);
    const auto hi = static_cast<std::size_t>(head[a + 1]);
    const std::size_t size = hi - lo;
    if (size <= m || size > kMaxGroupSize) continue;
    // Rank the group once; only rank-better entries can dominate, so each
    // node scans its prefix and stops at m dominators.
    ranked.assign(entries.begin() + static_cast<std::ptrdiff_t>(lo),
                  entries.begin() + static_cast<std::ptrdiff_t>(hi));
    std::sort(ranked.begin(), ranked.end(), rank_before);
    for (std::size_t r = m; r < ranked.size(); ++r) {
      const GroupEntry& b = ranked[r];
      std::size_t dominators = 0;
      for (std::size_t q = 0; q < r && dominators < m; ++q) {
        const GroupEntry& a2 = ranked[q];
        if (outlives(a2.bw, a2.link, b.bw, b.link) &&
            outlives(a2.frac, a2.link, b.frac, b.link))
          ++dominators;
      }
      if (dominators >= m) {
        cand[static_cast<std::size_t>(b.node)] = 0;
        ++dropped;
      }
    }
  }
  if (dropped > 0) dropped_counter().inc(dropped);
  return cand;
}

std::vector<char> exact_dominated_candidate_mask(
    const remos::NetworkSnapshot& snap, const SelectionOptions& opt,
    const std::vector<char>& eligible) {
  std::vector<char> cand = eligible;
  const auto m = static_cast<std::size_t>(opt.num_nodes);
  const std::size_t V = snap.graph().node_count();

  auto groups = group_eligible_leaves(snap, opt, eligible, m);
  if (!groups) return cand;
  const auto& head = groups->head;
  const auto& entries = groups->entries;

  std::vector<GroupEntry> by_id;
  for (std::size_t a = 0; a < V; ++a) {
    const auto lo = static_cast<std::size_t>(head[a]);
    const auto hi = static_cast<std::size_t>(head[a + 1]);
    const std::size_t size = hi - lo;
    if (size <= m || size > kMaxGroupSize) continue;
    // Entries were filled in id order, so each candidate's potential
    // dominators (strictly lower id) are exactly its prefix.
    by_id.assign(entries.begin() + static_cast<std::ptrdiff_t>(lo),
                 entries.begin() + static_cast<std::ptrdiff_t>(hi));
    for (std::size_t r = m; r < by_id.size(); ++r) {
      const GroupEntry& b = by_id[r];
      std::size_t dominators = 0;
      for (std::size_t q = 0; q < r && dominators < m; ++q) {
        const GroupEntry& a2 = by_id[q];
        // Weak dominance on every objective key suffices: with a lower id
        // the swap B -> A is value-preserving *and* lexicographically
        // improving, so ties are prunable here (unlike the greedy mask).
        if (a2.cpu >= b.cpu && a2.bw >= b.bw && a2.frac >= b.frac)
          ++dominators;
      }
      if (dominators >= m) cand[static_cast<std::size_t>(b.node)] = 0;
    }
  }
  return cand;
}

}  // namespace netsel::select
