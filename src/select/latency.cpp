#include "select/latency.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "select/algorithms.hpp"
#include "select/context.hpp"
#include "select/detail.hpp"
#include "select/objective.hpp"

namespace netsel::select {

namespace {

struct Candidate {
  std::vector<topo::NodeId> nodes;
  double max_latency = std::numeric_limits<double>::infinity();
  double min_cpu = 0.0;
};

/// The m eligible compute nodes closest to the source of `row` (the
/// center), by path latency, ties toward higher cpu then lower id. Empty
/// when fewer than m are eligible. Unreached nodes read latency 0.
std::vector<topo::NodeId> nearest_m(const remos::NetworkSnapshot& snap,
                                    const SelectionOptions& opt,
                                    const SelectionContext::PairRow& row,
                                    int m) {
  const std::size_t n = snap.graph().node_count();
  std::vector<topo::NodeId> pool;
  for (std::size_t i = 0; i < n; ++i) {
    auto id = static_cast<topo::NodeId>(i);
    if (node_eligible(snap, id, opt)) pool.push_back(id);
  }
  if (static_cast<int>(pool.size()) < m) return {};
  std::stable_sort(pool.begin(), pool.end(), [&](topo::NodeId a, topo::NodeId b) {
    const double da = row.at(a).latency;
    const double db = row.at(b).latency;
    if (da != db) return da < db;
    return node_cpu(snap, a, opt) > node_cpu(snap, b, opt);
  });
  pool.resize(static_cast<std::size_t>(m));
  std::sort(pool.begin(), pool.end());
  return pool;
}

}  // namespace

SelectionResult select_min_latency(const remos::NetworkSnapshot& snap,
                                   const SelectionOptions& opt) {
  validate_options(snap, opt);
  const std::size_t n = snap.graph().node_count();
  // Path latencies come from the context's cached rows, along the same
  // deterministic BFS paths evaluate_set reads.
  SelectionContext ctx(snap);

  Candidate best;
  for (std::size_t c = 0; c < n; ++c) {
    const SelectionContext::PairRow row =
        ctx.pair_row(static_cast<topo::NodeId>(c));
    auto nodes = nearest_m(snap, opt, row, opt.num_nodes);
    if (nodes.empty()) continue;
    const SetEvaluation ev = evaluate_set(ctx, nodes, opt);
    Candidate cand;
    cand.max_latency = ev.max_pair_latency;
    cand.min_cpu = ev.min_cpu;
    cand.nodes = std::move(nodes);
    bool better = cand.max_latency < best.max_latency ||
                  (cand.max_latency == best.max_latency &&
                   (cand.min_cpu > best.min_cpu ||
                    (cand.min_cpu == best.min_cpu && cand.nodes < best.nodes)));
    if (better) best = std::move(cand);
  }

  SelectionResult result;
  if (best.nodes.empty()) {
    result.note = "not enough eligible nodes";
    return result;
  }
  result.feasible = true;
  result.nodes = best.nodes;
  result.min_cpu = best.min_cpu;
  auto ev = evaluate_set(ctx, result.nodes, opt);
  result.min_bw_fraction = ev.min_pair_bw_fraction;
  result.objective = -best.max_latency;
  std::ostringstream os;
  os << "max pairwise latency " << best.max_latency << " s";
  result.note = os.str();
  return result;
}

SelectionResult select_balanced_latency_bound(
    const remos::NetworkSnapshot& snap, const SelectionOptions& opt,
    double max_pair_latency) {
  validate_options(snap, opt);
  if (max_pair_latency < 0.0)
    throw std::invalid_argument("latency bound must be >= 0");

  // One context for the whole sweep: every candidate evaluation below hits
  // the same cached bottleneck rows.
  SelectionContext ctx(snap);

  auto unconstrained = select_balanced(ctx, opt);
  if (unconstrained.feasible) {
    auto ev = evaluate_set(ctx, unconstrained.nodes, opt);
    if (ev.max_pair_latency <= max_pair_latency) return unconstrained;
  }

  const std::size_t n = snap.graph().node_count();
  SelectionResult best;
  double best_value = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < n; ++c) {
    // Pool: eligible nodes within bound/2 of the center — any two of them
    // are within the bound via the center (exact on trees, conservative
    // with cycles).
    const SelectionContext::PairRow row =
        ctx.pair_row(static_cast<topo::NodeId>(c));
    std::vector<topo::NodeId> pool;
    for (std::size_t i = 0; i < n; ++i) {
      auto id = static_cast<topo::NodeId>(i);
      if (!node_eligible(snap, id, opt)) continue;
      if (row.at(id).latency <= max_pair_latency / 2.0 + 1e-12)
        pool.push_back(id);
    }
    if (static_cast<int>(pool.size()) < opt.num_nodes) continue;
    auto nodes = detail::top_m_by_cpu(snap, opt, std::move(pool), opt.num_nodes);
    auto ev = evaluate_set(ctx, nodes, opt);
    if (ev.max_pair_latency > max_pair_latency + 1e-12) continue;
    if (!ev.connected) continue;
    if (opt.min_bw_bps > 0.0 && ev.min_pair_bw < opt.min_bw_bps) continue;
    if (ev.balanced > best_value) {
      best_value = ev.balanced;
      best.feasible = true;
      best.nodes = std::move(nodes);
      best.min_cpu = ev.min_cpu;
      best.min_bw_fraction = ev.min_pair_bw_fraction;
      best.objective = ev.balanced;
    }
  }
  if (!best.feasible) best.note = "no set satisfies the latency bound";
  return best;
}

}  // namespace netsel::select
