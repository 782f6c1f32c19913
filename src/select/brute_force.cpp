#include "select/brute_force.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "select/context.hpp"
#include "select/detail.hpp"

namespace netsel::select {

namespace {

std::uint64_t choose(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::uint64_t r = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    // Overflow-safe enough for the test-scale inputs guarded by max_subsets.
    r = r * (n - k + i) / i;
  }
  return r;
}

}  // namespace

BruteForceResult brute_force_select(const SelectionContext& ctx,
                                    const SelectionOptions& opt, Criterion c,
                                    std::uint64_t max_subsets) {
  const auto& snap = ctx.snapshot();
  validate_options(snap, opt);
  const auto m = static_cast<std::size_t>(opt.num_nodes);

  std::vector<topo::NodeId> pool;
  for (std::size_t i = 0; i < snap.graph().node_count(); ++i) {
    auto n = static_cast<topo::NodeId>(i);
    if (node_eligible(snap, n, opt)) pool.push_back(n);
  }

  BruteForceResult result;
  if (pool.size() < m) return result;
  if (choose(pool.size(), m) > max_subsets)
    throw std::invalid_argument("brute_force_select: too many subsets");

  // Pairwise bottleneck matrices over the pool — the context's per-source
  // rows follow the same deterministic BFS paths the old per-call BFS did.
  std::vector<SelectionContext::PairRow> rows;
  rows.reserve(pool.size());
  for (topo::NodeId n : pool) rows.push_back(ctx.pair_row(n));
  std::vector<double> cpu(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i)
    cpu[i] = node_cpu(snap, pool[i], opt);

  std::vector<std::size_t> idx(m);
  for (std::size_t i = 0; i < m; ++i) idx[i] = i;

  double best = -std::numeric_limits<double>::infinity();
  while (true) {
    ++result.subsets_examined;
    double min_cpu = std::numeric_limits<double>::infinity();
    double min_abs = std::numeric_limits<double>::infinity();
    double min_frac = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      min_cpu = std::min(min_cpu, cpu[idx[i]]);
      for (std::size_t j = i + 1; j < m; ++j) {
        const SelectionContext::PairValue p = rows[idx[i]].at(pool[idx[j]]);
        if (!p.reached) {
          // Disconnected pair: the historical per-call BFS left its -1.0
          // init sentinel in place, ranking disconnected subsets below any
          // connected one; keep that exact ordering.
          min_abs = std::min(min_abs, -1.0);
          min_frac = std::min(min_frac, -1.0);
          continue;
        }
        min_abs = std::min(min_abs, p.bottleneck);
        min_frac = std::min(min_frac, SelectionContext::row_fraction(p, opt));
      }
    }
    bool ok = opt.min_bw_bps <= 0.0 || min_abs >= opt.min_bw_bps;
    if (ok) {
      double value = 0.0;
      switch (c) {
        case Criterion::MaxCompute: value = min_cpu; break;
        case Criterion::MaxBandwidth: value = min_abs; break;
        case Criterion::Balanced:
          value = std::min(min_cpu / opt.cpu_priority,
                           min_frac / opt.bw_priority);
          break;
      }
      if (value > best) {
        best = value;
        result.feasible = true;
        result.objective = value;
        result.nodes.clear();
        for (std::size_t i = 0; i < m; ++i) result.nodes.push_back(pool[idx[i]]);
      }
    }
    // Next combination in lexicographic order.
    std::size_t i = m;
    while (i > 0) {
      --i;
      if (idx[i] != i + pool.size() - m) {
        ++idx[i];
        for (std::size_t j = i + 1; j < m; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) return result;
    }
    if (m == 0) return result;
  }
}

BruteForceResult brute_force_select(const remos::NetworkSnapshot& snap,
                                    const SelectionOptions& opt, Criterion c,
                                    std::uint64_t max_subsets) {
  SelectionContext ctx(snap);
  return brute_force_select(ctx, opt, c, max_subsets);
}

}  // namespace netsel::select
