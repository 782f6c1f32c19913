#include "api/reselect.hpp"

#include <algorithm>
#include <limits>
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
  // Before anything reads the options: a short eligibility mask would be
  // read out of bounds.
  select::validate_options(ctx.snapshot(), sopt);

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

bool reselect_stays(const select::SelectionContext& ctx,
                    const std::vector<topo::NodeId>& current,
                    const ReselectOptions& opt) {
  if (current.empty()) return false;
  select::SelectionOptions sopt = opt.selection;
  sopt.num_nodes = static_cast<int>(current.size());
  select::validate_options(ctx.snapshot(), sopt);  // as reselect does
  if (opt.max_migrations < 0) return false;
  for (topo::NodeId n : current)
    if (!select::node_eligible(ctx.snapshot(), n, sopt)) return false;
  // Nothing forced out and no budget: the swap loop never runs.
  if (opt.max_migrations == 0) return true;
  if (current.size() < 2) return false;  // no rest to hold a term

  // The swap loop scores the sorted current set and trials that overwrite
  // one of its entries in place, so a pair of the rest is read from the row
  // of its earlier member in both, as here.
  std::vector<topo::NodeId> nodes = current;
  std::sort(nodes.begin(), nodes.end());
  const std::size_t m = nodes.size();
  const bool balanced = opt.criterion == select::Criterion::Balanced;
  const bool cpu_terms = opt.criterion != select::Criterion::MaxBandwidth;
  const bool bw_terms = opt.criterion != select::Criterion::MaxCompute;
  struct Term {
    double value;
    std::size_t a, b;  // the members it involves (b == a: a member term)
  };
  std::vector<Term> terms;
  if (cpu_terms)
    for (std::size_t i = 0; i < m; ++i) {
      const double cpu = select::node_cpu(ctx.snapshot(), nodes[i], sopt);
      terms.push_back({balanced ? cpu / sopt.cpu_priority : cpu, i, i});
    }
  for (std::size_t i = 0; i + 1 < m; ++i) {
    const select::SelectionContext::PairRow row = ctx.pair_row(nodes[i]);
    for (std::size_t j = i + 1; j < m; ++j) {
      const select::SelectionContext::PairValue p = row.at(nodes[j]);
      // An unreached pair disconnects every set holding it: score 0.
      if (!p.reached)
        terms.push_back({0.0, i, j});
      else if (bw_terms)
        terms.push_back(
            {balanced ? select::SelectionContext::row_fraction(p, sopt) /
                            sopt.bw_priority
                      : p.bottleneck,
             i, j});
    }
  }
  // criterion_score is exactly the minimum of these terms: evaluate_set
  // divides each minimum by a positive priority, and division is monotone.
  double score = std::numeric_limits<double>::infinity();
  for (const Term& t : terms) score = std::min(score, t.value);
  // A term at or below the score bounds every trial that keeps its members.
  // Replacing member o can beat the score only if o is in all of them.
  std::vector<std::size_t> held(m, 0);
  std::size_t witnesses = 0;
  for (const Term& t : terms) {
    if (t.value > score) continue;
    ++witnesses;
    ++held[t.a];
    if (t.b != t.a) ++held[t.b];
  }
  return std::all_of(held.begin(), held.end(),
                     [&](std::size_t h) { return h < witnesses; });
}

}  // namespace netsel::api
