#include "topo/flat_graph.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

namespace netsel::topo {

namespace {

std::size_t align8(std::size_t n) { return (n + 7u) & ~std::size_t{7}; }

}  // namespace

FlatGraph FlatGraph::build(const TopologyGraph& graph,
                           std::span<const double> bw,
                           std::span<const double> bwfactor) {
  if (bw.size() != graph.link_count() || bwfactor.size() != graph.link_count())
    throw std::invalid_argument("FlatGraph::build: weight size mismatch");
  const auto adj = graph.adjacency();
  const auto links = graph.links();
  FlatGraph g;
  g.node_count_ = graph.node_count();
  g.link_count_ = graph.link_count();
  g.half_edge_count_ = adj.link.size();

  const std::size_t off_row = 0;
  const std::size_t off_nbr =
      off_row + align8((g.node_count_ + 1) * sizeof(std::int32_t));
  const std::size_t off_via =
      off_nbr + align8(g.half_edge_count_ * sizeof(NodeId));
  const std::size_t off_bw =
      off_via + align8(g.half_edge_count_ * sizeof(LinkId));
  const std::size_t off_bwf = off_bw + align8(g.link_count_ * sizeof(double));
  const std::size_t off_lat = off_bwf + align8(g.link_count_ * sizeof(double));
  const std::size_t off_cmp = off_lat + align8(g.link_count_ * sizeof(double));
  const std::size_t off_xor = off_cmp + align8(g.node_count_ * sizeof(char));
  g.arena_bytes_ = off_xor + align8(g.link_count_ * sizeof(std::int32_t));
  g.arena_ = std::make_unique<std::byte[]>(g.arena_bytes_);

  std::byte* base = g.arena_.get();
  g.row_start_ = reinterpret_cast<std::int32_t*>(base + off_row);
  g.neighbor_ = reinterpret_cast<NodeId*>(base + off_nbr);
  g.via_ = reinterpret_cast<LinkId*>(base + off_via);
  g.bw_ = reinterpret_cast<double*>(base + off_bw);
  g.bwfactor_ = reinterpret_cast<double*>(base + off_bwf);
  g.latency_ = reinterpret_cast<double*>(base + off_lat);
  g.is_compute_ = reinterpret_cast<char*>(base + off_cmp);
  g.ends_xor_ = reinterpret_cast<std::int32_t*>(base + off_xor);

  std::memcpy(g.row_start_, adj.start.data(),
              (g.node_count_ + 1) * sizeof(std::int32_t));
  if (g.half_edge_count_ > 0)
    std::memcpy(g.via_, adj.link.data(), g.half_edge_count_ * sizeof(LinkId));
  if (g.link_count_ > 0) {
    std::memcpy(g.bw_, bw.data(), g.link_count_ * sizeof(double));
    std::memcpy(g.bwfactor_, bwfactor.data(), g.link_count_ * sizeof(double));
  }
  for (std::size_t l = 0; l < g.link_count_; ++l)
    g.latency_[l] = links[l].latency;
  for (std::size_t n = 0; n < g.node_count_; ++n)
    g.is_compute_[n] = graph.is_compute(static_cast<NodeId>(n)) ? 1 : 0;
  // Each link appears as two half-edges (u->v and v->u); both assignments
  // store the same symmetric value. Tombstoned link ids keep 0.
  std::memset(g.ends_xor_, 0, g.link_count_ * sizeof(std::int32_t));
  for (std::size_t u = 0; u < g.node_count_; ++u) {
    const auto lo = static_cast<std::size_t>(g.row_start_[u]);
    const auto hi = static_cast<std::size_t>(g.row_start_[u + 1]);
    for (std::size_t e = lo; e < hi; ++e) {
      const auto il = static_cast<std::size_t>(g.via_[e]);
      g.neighbor_[e] = links[il].other(static_cast<NodeId>(u));
      g.ends_xor_[il] =
          static_cast<std::int32_t>(static_cast<std::uint32_t>(u) ^
                                    static_cast<std::uint32_t>(g.neighbor_[e]));
    }
  }
  return g;
}

BottleneckRow bottleneck_row(const FlatGraph& g, NodeId src) {
  if (src < 0 || static_cast<std::size_t>(src) >= g.node_count())
    throw std::invalid_argument("bottleneck_row: source out of range");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = g.node_count();
  const auto row_start = g.row_start();
  const auto neighbor = g.neighbor();
  const auto via = g.via();
  const auto bw = g.link_bw();
  const auto bwfactor = g.link_bwfactor();
  const auto latency = g.link_latency();

  BottleneckRow row;
  row.bottleneck.assign(n, 0.0);
  row.bottleneck2.assign(n, 0.0);
  row.latency.assign(n, 0.0);
  row.reached.assign(n, 0);
  row.bottleneck[static_cast<std::size_t>(src)] = kInf;
  row.bottleneck2[static_cast<std::size_t>(src)] = kInf;
  row.reached[static_cast<std::size_t>(src)] = 1;
  row.tree_link.assign(n, kInvalidLink);
  // Same flat-FIFO frontier as the TopologyGraph kernel: the discovery
  // order IS the queue, recorded as row.order.
  std::vector<NodeId>& fifo = row.order;
  fifo.reserve(n);
  fifo.push_back(src);
  for (std::size_t head = 0; head < fifo.size(); ++head) {
    const auto iu = static_cast<std::size_t>(fifo[head]);
    const auto lo = static_cast<std::size_t>(row_start[iu]);
    const auto hi = static_cast<std::size_t>(row_start[iu + 1]);
    for (std::size_t e = lo; e < hi; ++e) {
      const auto iv = static_cast<std::size_t>(neighbor[e]);
      if (row.reached[iv]) continue;
      row.reached[iv] = 1;
      const auto il = static_cast<std::size_t>(via[e]);
      row.tree_link[iv] = via[e];
      row.bottleneck[iv] = std::min(row.bottleneck[iu], bw[il]);
      row.bottleneck2[iv] = std::min(row.bottleneck2[iu], bwfactor[il]);
      row.latency[iv] = row.latency[iu] + latency[il];
      fifo.push_back(neighbor[e]);
    }
  }
  return row;
}

void batched_bottleneck_rows(const FlatGraph& g,
                             std::span<const NodeId> sources,
                             std::span<BottleneckRow> out,
                             BatchStats* stats) {
  if (sources.size() > 64)
    throw std::invalid_argument("batched_bottleneck_rows: > 64 sources");
  if (out.size() != sources.size())
    throw std::invalid_argument("batched_bottleneck_rows: out size mismatch");
  const std::size_t n = g.node_count();
  const std::size_t W = sources.size();
  if (W == 0) return;
  for (NodeId s : sources)
    if (s < 0 || static_cast<std::size_t>(s) >= n)
      throw std::invalid_argument("batched_bottleneck_rows: source range");

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto row_start = g.row_start();
  const auto neighbor = g.neighbor();
  const auto via = g.via();
  const auto bw = g.link_bw();
  const auto bwfactor = g.link_bwfactor();
  const auto latency = g.link_latency();

  // Per-node 64-bit masks: bit i belongs to sources[i]. `seen` is cumulative
  // reachability; `visit` is the current level; `next` accumulates the next
  // one. First-wins within the in-id-order level scan, exactly like the
  // scalar FIFO when the per-level ascending-discovery check holds.
  //
  // The traversal itself (phase 1) touches only these masks and appends one
  // compact record per discovery edge; the 64 output rows are then filled
  // one at a time (phase 2) by replaying that stream. Writing the rows
  // during the traversal instead — the obvious formulation — scatters every
  // discovery across 64 rows x 6 arrays (tens of MB of random stores) and
  // runs DRAM-bound, several times *slower* than 64 scalar BFS passes whose
  // per-row working set stays cache-resident. The event stream keeps both
  // phases resident: records are appended sequentially, and each replay
  // touches a single row.
  std::vector<std::uint64_t> seen(n, 0), visit(n, 0), next(n, 0);

  // One 8-byte record per (lane, child) discovery, bucketed per lane at
  // append time so each replay reads only its own ~reach-sized stream
  // instead of filtering the union. The parent is not stored: it is the
  // link's other endpoint (ends_xor). Append order == BFS level order, so
  // a parent's row entries are final before any of its children replay
  // (parents are discovered a level earlier).
  //
  // The buffer is one flat allocation with lane i's region at [i*n, (i+1)*n)
  // (a lane discovers at most n-1 nodes) and a cursor per lane — 64 active
  // sequential write streams, so appends stay cache-resident where growing
  // per-lane vectors or direct row writes would not. It is thread_local so
  // repeated calls (the warm_rows batching loop) pay its page faults once;
  // oversized graphs release it at the end of the call rather than pinning
  // hundreds of MB per thread.
  struct Disc {
    NodeId child;
    LinkId link;
  };
  static thread_local std::unique_ptr<Disc[]> disc_buf;
  static thread_local std::size_t disc_cap = 0;
  const std::size_t disc_need = W * n;
  if (disc_cap < disc_need) {
    disc_buf = std::make_unique_for_overwrite<Disc[]>(disc_need);
    disc_cap = disc_need;
  }
  Disc* const buf = disc_buf.get();
  std::size_t cur[64];
  for (std::size_t i = 0; i < W; ++i) cur[i] = i * n;
  std::vector<NodeId> frontier, next_frontier;
  frontier.reserve(W);
  for (std::size_t i = 0; i < W; ++i) {
    const auto is = static_cast<std::size_t>(sources[i]);
    if (seen[is] == 0) frontier.push_back(sources[i]);
    seen[is] |= std::uint64_t{1} << i;
    visit[is] |= std::uint64_t{1} << i;
  }
  std::sort(frontier.begin(), frontier.end());

  // Discovery-order verification state: last node id each source discovered
  // in the current level (reset per level), and the set of sources whose
  // sequence inverted somewhere — those fall back to the scalar kernel.
  NodeId last_disc[64];
  std::uint64_t bad = 0;
  std::uint64_t words = 0, passes = 0;

  while (!frontier.empty()) {
    ++passes;
    next_frontier.clear();
    for (std::size_t i = 0; i < W; ++i) last_disc[i] = kInvalidNode;
    for (NodeId v : frontier) {
      const auto iv = static_cast<std::size_t>(v);
      const std::uint64_t vb = visit[iv];
      visit[iv] = 0;
      const auto lo = static_cast<std::size_t>(row_start[iv]);
      const auto hi = static_cast<std::size_t>(row_start[iv + 1]);
      words += hi - lo;
      for (std::size_t e = lo; e < hi; ++e) {
        const auto iw = static_cast<std::size_t>(neighbor[e]);
        std::uint64_t fresh = vb & ~seen[iw];
        if (!fresh) continue;
        seen[iw] |= fresh;
        if (next[iw] == 0) next_frontier.push_back(neighbor[e]);
        next[iw] |= fresh;
        do {
          const auto i = static_cast<std::size_t>(std::countr_zero(fresh));
          fresh &= fresh - 1;
          buf[cur[i]++] = {neighbor[e], via[e]};
          if (neighbor[e] < last_disc[i])
            bad |= std::uint64_t{1} << i;
          else
            last_disc[i] = neighbor[e];
        } while (fresh);
      }
    }
    // Next level, in ascending id order (the FIFO-equivalence requirement).
    std::sort(next_frontier.begin(), next_frontier.end());
    frontier.swap(next_frontier);
    for (NodeId v : frontier) std::swap(visit[static_cast<std::size_t>(v)],
                                        next[static_cast<std::size_t>(v)]);
  }

  // Phase 2: fill each row by replaying the lane's slice of the stream.
  std::uint64_t fallbacks = 0;
  for (std::size_t i = 0; i < W; ++i) {
    if (bad & (std::uint64_t{1} << i)) {
      // The in-level inversion means the id-order scan may have diverged
      // from this source's FIFO order one level later: rebuild exactly.
      out[i] = bottleneck_row(g, sources[i]);
      ++fallbacks;
      continue;
    }
    BottleneckRow& row = out[i];
    // Replay overwrites every reached entry, so a row that is already sized
    // (the warm-cache refresh pattern: the caller reuses last epoch's rows)
    // needs no blanket re-zeroing — only entries this lane did NOT reach
    // must be reset to defaults, and on a connected graph that is nothing.
    // Unsized rows take the ordinary assign path.
    const std::size_t reach = cur[i] - i * n + 1;  // discoveries + source
    const bool sized = row.bottleneck.size() == n &&
                       row.bottleneck2.size() == n &&
                       row.latency.size() == n && row.reached.size() == n &&
                       row.tree_link.size() == n;
    if (!sized) {
      row.bottleneck.assign(n, 0.0);
      row.bottleneck2.assign(n, 0.0);
      row.latency.assign(n, 0.0);
      row.reached.assign(n, 0);
      row.tree_link.assign(n, kInvalidLink);
    } else if (reach < n) {
      const std::uint64_t lane = std::uint64_t{1} << i;
      for (std::size_t j = 0; j < n; ++j) {
        if (seen[j] & lane) continue;
        row.bottleneck[j] = 0.0;
        row.bottleneck2[j] = 0.0;
        row.latency[j] = 0.0;
        row.reached[j] = 0;
        row.tree_link[j] = kInvalidLink;
      }
    }
    const auto is = static_cast<std::size_t>(sources[i]);
    row.bottleneck[is] = kInf;
    row.bottleneck2[is] = kInf;
    row.latency[is] = 0.0;
    row.reached[is] = 1;
    row.tree_link[is] = kInvalidLink;
    // The discovery order is the source followed by the lane's record
    // children verbatim — filled as its own strided-copy loop (no per-event
    // capacity check in the replay below).
    row.order.resize(reach);
    NodeId* const od = row.order.data();
    od[0] = sources[i];
    {
      std::size_t k = 1;
      for (std::size_t p = i * n; p < cur[i]; ++p) od[k++] = buf[p].child;
    }
    for (std::size_t p = i * n; p < cur[i]; ++p) {
      const Disc d = buf[p];
      const auto iw = static_cast<std::size_t>(d.child);
      const auto il = static_cast<std::size_t>(d.link);
      const auto iv = static_cast<std::size_t>(g.link_other(d.link, d.child));
      row.tree_link[iw] = d.link;
      row.reached[iw] = 1;
      row.bottleneck[iw] = std::min(row.bottleneck[iv], bw[il]);
      row.bottleneck2[iw] = std::min(row.bottleneck2[iv], bwfactor[il]);
      row.latency[iw] = row.latency[iv] + latency[il];
    }
  }
  // Keep the scratch for the next call at normal sizes, but do not pin a
  // huge-graph buffer (64 lanes x 1M nodes is half a GB) to this thread.
  if (disc_cap > (std::size_t{1} << 23)) {
    disc_buf.reset();
    disc_cap = 0;
  }
  if (stats) {
    stats->passes += passes;
    stats->frontier_words += words;
    stats->batched_rows += W - fallbacks;
    stats->scalar_fallback_rows += fallbacks;
  }
}

}  // namespace netsel::topo
