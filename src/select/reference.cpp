#include "select/reference.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "select/detail.hpp"
#include "topo/connectivity.hpp"
#include "topo/routing.hpp"

namespace netsel::select::detail {

namespace {

struct CandidateEval {
  std::vector<topo::NodeId> nodes;
  double mincpu = 0.0;
  double minbw = 0.0;
  double minresource = -std::numeric_limits<double>::infinity();
};

/// Evaluate the best candidate inside component `c` per Fig. 3 step 3.
CandidateEval evaluate_component(const remos::NetworkSnapshot& snap,
                                 const SelectionOptions& opt,
                                 const topo::Components& comps, int c,
                                 const std::vector<char>& mask, int m) {
  CandidateEval cand;
  cand.nodes = top_m_by_cpu(snap, opt, eligible_members(snap, opt, comps, c), m);
  cand.mincpu = min_cpu_of(snap, opt, cand.nodes);
  if (opt.steiner_restricted) {
    cand.minbw = std::numeric_limits<double>::infinity();
    for (topo::LinkId l : steiner_links(snap.graph(), mask, cand.nodes))
      cand.minbw = std::min(cand.minbw, link_fraction(snap, l, opt));
  } else {
    cand.minbw = min_fraction_in_component(snap, opt, comps, c, mask);
  }
  cand.minresource =
      std::min(cand.mincpu / opt.cpu_priority, cand.minbw / opt.bw_priority);
  return cand;
}

}  // namespace

SetEvaluation reference_evaluate_set(const remos::NetworkSnapshot& snap,
                                     const std::vector<topo::NodeId>& nodes,
                                     const SelectionOptions& opt) {
  const auto& g = snap.graph();
  SetEvaluation ev;
  ev.connected = true;
  ev.min_cpu = std::numeric_limits<double>::infinity();
  ev.min_pair_bw = std::numeric_limits<double>::infinity();
  ev.min_pair_bw_fraction = std::numeric_limits<double>::infinity();
  if (nodes.empty())
    throw std::invalid_argument("reference_evaluate_set: empty set");
  for (topo::NodeId n : nodes) {
    if (!g.is_compute(n))
      throw std::invalid_argument(
          "reference_evaluate_set: non-compute node in set");
    ev.min_cpu = std::min(ev.min_cpu, node_cpu(snap, n, opt));
  }
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const topo::BfsTree tree(g, nodes[i]);
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (nodes[i] == nodes[j]) continue;
      if (!tree.reached(nodes[j])) {
        ev.connected = false;
        ev.min_pair_bw = 0.0;
        ev.min_pair_bw_fraction = 0.0;
        continue;
      }
      double latency = 0.0;
      for (const topo::Hop& h : tree.path_to(nodes[j])) {
        ev.min_pair_bw = std::min(ev.min_pair_bw, snap.bw(h.link));
        ev.min_pair_bw_fraction =
            std::min(ev.min_pair_bw_fraction, link_fraction(snap, h.link, opt));
        latency += g.link(h.link).latency;
      }
      ev.max_pair_latency = std::max(ev.max_pair_latency, latency);
    }
  }
  ev.balanced = std::min(ev.min_cpu / opt.cpu_priority,
                         ev.min_pair_bw_fraction / opt.bw_priority);
  return ev;
}

SelectionResult reference_select_max_compute(const remos::NetworkSnapshot& snap,
                                             const SelectionOptions& opt) {
  validate_options(snap, opt);
  const int m = opt.num_nodes;
  auto mask = initial_link_mask(snap, opt);
  auto comps = topo::connected_components(snap.graph(), mask);
  auto counts = eligible_counts(snap, opt, comps);

  SelectionResult result;
  double best = -std::numeric_limits<double>::infinity();
  for (int c = 0; c < comps.count; ++c) {
    if (counts[static_cast<std::size_t>(c)] < m) continue;
    auto members = eligible_members(snap, opt, comps, c);
    auto chosen = top_m_by_cpu(snap, opt, std::move(members), m);
    double mincpu = min_cpu_of(snap, opt, chosen);
    if (mincpu > best) {
      best = mincpu;
      result.feasible = true;
      result.nodes = std::move(chosen);
      result.min_cpu = mincpu;
      result.min_bw_fraction =
          min_fraction_in_component(snap, opt, comps, c, mask);
      result.objective = mincpu;
    }
  }
  if (!result.feasible) result.note = "no component with enough eligible nodes";
  return result;
}

SelectionResult reference_select_max_bandwidth(
    const remos::NetworkSnapshot& snap, const SelectionOptions& opt) {
  validate_options(snap, opt);
  const int m = opt.num_nodes;
  auto mask = initial_link_mask(snap, opt);

  SelectionResult result;

  // Step 1: any m eligible compute nodes in one component — the component
  // with the most eligible nodes, top-m by cpu.
  auto pick_from = [&](const topo::Components& comps,
                       const std::vector<int>& counts) -> int {
    int best = -1;
    for (int c = 0; c < comps.count; ++c) {
      if (counts[static_cast<std::size_t>(c)] < m) continue;
      if (best == -1 || counts[static_cast<std::size_t>(c)] >
                            counts[static_cast<std::size_t>(best)])
        best = c;
    }
    return best;
  };

  {
    auto comps = topo::connected_components(snap.graph(), mask);
    auto counts = eligible_counts(snap, opt, comps);
    int c = pick_from(comps, counts);
    if (c == -1) {
      result.note = "no component with enough eligible nodes";
      return result;
    }
    result.nodes =
        top_m_by_cpu(snap, opt, eligible_members(snap, opt, comps, c), m);
    result.feasible = true;
  }

  // Steps 2-4: repeatedly remove the minimum-available-bandwidth edge while
  // a large-enough component survives.
  while (true) {
    topo::LinkId victim = min_bw_link(snap, mask);
    if (victim == topo::kInvalidLink) break;  // no edges left: m == 1 case
    mask[static_cast<std::size_t>(victim)] = 0;
    auto comps = topo::connected_components(snap.graph(), mask);
    auto counts = eligible_counts(snap, opt, comps);
    int c = pick_from(comps, counts);
    if (c == -1) break;
    result.nodes =
        top_m_by_cpu(snap, opt, eligible_members(snap, opt, comps, c), m);
    ++result.iterations;
  }

  // Step 5: report the exact achieved figures.
  auto ev = reference_evaluate_set(snap, result.nodes, opt);
  result.min_cpu = ev.min_cpu;
  result.min_bw_fraction = ev.min_pair_bw_fraction;
  result.objective = ev.min_pair_bw;
  return result;
}

SelectionResult reference_select_balanced(const remos::NetworkSnapshot& snap,
                                          const SelectionOptions& opt) {
  validate_options(snap, opt);
  const int m = opt.num_nodes;
  auto mask = initial_link_mask(snap, opt);

  SelectionResult result;

  // Step 1: start from the max-compute choice (best feasible component).
  CandidateEval best;
  {
    auto comps = topo::connected_components(snap.graph(), mask);
    auto counts = eligible_counts(snap, opt, comps);
    for (int c = 0; c < comps.count; ++c) {
      if (counts[static_cast<std::size_t>(c)] < m) continue;
      auto cand = evaluate_component(snap, opt, comps, c, mask, m);
      if (cand.minresource > best.minresource) best = std::move(cand);
    }
  }
  if (best.nodes.empty()) {
    result.note = "no component with enough eligible nodes";
    return result;
  }

  // Steps 2-4: remove the minimum-fractional-bandwidth edge; re-evaluate
  // every surviving component; keep going while minresource improves.
  while (true) {
    topo::LinkId victim = min_fraction_link(snap, opt, mask);
    if (victim == topo::kInvalidLink) break;
    mask[static_cast<std::size_t>(victim)] = 0;
    ++result.iterations;

    bool newsetflag = false;
    bool any_feasible = false;
    auto comps = topo::connected_components(snap.graph(), mask);
    auto counts = eligible_counts(snap, opt, comps);
    for (int c = 0; c < comps.count; ++c) {
      if (counts[static_cast<std::size_t>(c)] < m) continue;
      any_feasible = true;
      auto cand = evaluate_component(snap, opt, comps, c, mask, m);
      if (cand.minresource > best.minresource) {
        best = std::move(cand);
        newsetflag = true;
      }
    }
    // Paper-exact rule: stop on the first non-improving removal. The
    // exhaustive extension keeps sweeping while any component can still
    // host the application.
    if (opt.exhaustive_balanced ? !any_feasible : !newsetflag) break;
  }

  result.feasible = true;
  result.nodes = best.nodes;
  result.min_cpu = best.mincpu;
  result.min_bw_fraction = best.minbw;
  result.objective = best.minresource;
  return result;
}

}  // namespace netsel::select::detail
