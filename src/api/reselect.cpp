#include "api/reselect.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "select/context.hpp"
#include "select/objective.hpp"

namespace netsel::api {

namespace {

obs::Counter& reselect_calls() {
  static obs::Counter& c = obs::Registry::global().counter("api.reselect.calls");
  return c;
}
obs::Counter& reselect_migrations() {
  static obs::Counter& c =
      obs::Registry::global().counter("api.reselect.migrations");
  return c;
}

bool contains(const std::vector<topo::NodeId>& v, topo::NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

std::vector<topo::NodeId> sorted_difference(std::vector<topo::NodeId> a,
                                            std::vector<topo::NodeId> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<topo::NodeId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

}  // namespace

double criterion_score(select::Criterion c, const select::SetEvaluation& ev) {
  if (!ev.connected) return 0.0;
  switch (c) {
    case select::Criterion::MaxCompute: return ev.min_cpu;
    case select::Criterion::MaxBandwidth: return ev.min_pair_bw;
    case select::Criterion::Balanced: return ev.balanced;
  }
  return 0.0;
}

ReselectResult reselect(const select::SelectionContext& ctx,
                        const std::vector<topo::NodeId>& current,
                        const ReselectOptions& opt) {
  reselect_calls().inc();
  reselect_migrations();  // register even when no swap happens
  if (current.empty())
    throw std::invalid_argument("reselect: current placement is empty");
  const std::size_t m = current.size();
  select::SelectionOptions sopt = opt.selection;
  sopt.num_nodes = static_cast<int>(m);

  const auto score = [&](const std::vector<topo::NodeId>& nodes) {
    return criterion_score(opt.criterion, evaluate_set(ctx, nodes, sopt));
  };

  ReselectResult res;
  // A current member may have been torn out of the topology entirely
  // (NodeRemoved delta); such a placement cannot be evaluated — score 0.
  const bool current_evaluable =
      std::all_of(current.begin(), current.end(), [&](topo::NodeId n) {
        return ctx.graph().is_compute(n);
      });
  res.objective_before = current_evaluable ? score(current) : 0.0;

  // Members that are no longer eligible (host tombstoned, below the cpu or
  // memory requirements) must be replaced regardless of budget.
  const std::vector<char> eligible = ctx.eligibility(sopt);
  std::vector<topo::NodeId> kept;
  for (topo::NodeId n : current)
    if (eligible[static_cast<std::size_t>(n)]) kept.push_back(n);
  std::sort(kept.begin(), kept.end());

  const select::SelectionResult best =
      select::select_nodes(opt.criterion, ctx, sopt);
  if (!best.feasible) {
    res.nodes = current;
    res.kept_current = true;
    // The kept placement is what keeps running; score it so callers can
    // still see its quality (0 only when a member left the topology).
    res.objective_after = res.objective_before;
    res.note = "reselect: unconstrained selection infeasible, keeping "
               "current placement (" + best.note + ")";
    return res;
  }
  res.objective_unbounded = score(best.nodes);

  std::vector<topo::NodeId> chosen;
  if (opt.max_migrations < 0) {
    chosen = best.nodes;
    res.note = "unbounded: adopted optimum";
  } else {
    chosen = kept;
    // Candidates come from the unconstrained optimum: the bounded result
    // interpolates between "keep everything" and that set.
    std::vector<topo::NodeId> candidates;
    for (topo::NodeId n : best.nodes)
      if (!contains(chosen, n)) candidates.push_back(n);
    std::sort(candidates.begin(), candidates.end());

    // Forced replacements first: refill to m, each time taking the
    // candidate that maximises the score (ties -> lowest id).
    while (chosen.size() < m) {
      std::size_t pick = candidates.size();
      double pick_score = -1.0;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        chosen.push_back(candidates[i]);
        const double s = score(chosen);
        chosen.pop_back();
        if (pick == candidates.size() || s > pick_score) {
          pick = i;
          pick_score = s;
        }
      }
      if (pick == candidates.size()) break;  // not enough eligible candidates
      chosen.push_back(candidates[pick]);
      std::sort(chosen.begin(), chosen.end());
      candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (chosen.size() < m) {
      res.nodes = current;
      res.kept_current = true;
      res.objective_after = res.objective_before;
      res.note = "reselect: cannot refill forced replacements, keeping "
                 "current placement";
      return res;
    }

    // Bounded improvement swaps: what is left of the budget after forced
    // replacements (which may already exceed it).
    const int forced = static_cast<int>(m - kept.size());
    int remaining = std::max(0, opt.max_migrations - forced);
    double cur_score = score(chosen);
    while (remaining > 0 && !candidates.empty()) {
      std::size_t best_out = chosen.size(), best_in = candidates.size();
      double best_score = cur_score;
      for (std::size_t o = 0; o < chosen.size(); ++o) {
        if (!contains(current, chosen[o])) continue;  // only migrate originals
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          std::vector<topo::NodeId> trial = chosen;
          trial[o] = candidates[i];
          const double s = score(trial);
          if (s > best_score) {
            best_score = s;
            best_out = o;
            best_in = i;
          }
        }
      }
      if (best_out == chosen.size()) break;  // no swap improves enough
      chosen[best_out] = candidates[best_in];
      std::sort(chosen.begin(), chosen.end());
      candidates.erase(candidates.begin() +
                       static_cast<std::ptrdiff_t>(best_in));
      cur_score = best_score;
      --remaining;
    }
    res.note = "bounded: budget " + std::to_string(opt.max_migrations) +
               ", forced " + std::to_string(forced);
  }

  std::sort(chosen.begin(), chosen.end());
  res.feasible = true;
  res.nodes = chosen;
  res.migrated_in = sorted_difference(chosen, current);
  res.migrated_out = sorted_difference(current, chosen);
  res.migrations = static_cast<int>(res.migrated_in.size());
  res.objective_after = score(chosen);
  reselect_migrations().inc(static_cast<std::uint64_t>(res.migrations));
  return res;
}

}  // namespace netsel::api
