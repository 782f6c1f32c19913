#pragma once
// Churn-aware re-placement (§3.3 dynamic reselection, bounded): given an
// application's current node set and a fresh SelectionContext, compute a
// replacement set that keeps as much of the current placement as the
// migration budget demands. Full re-selection (the unbounded mode, which
// the MigrationController uses) treats every reselection as free; real
// migrations move process state, so operators cap migrations-per-decision
// and accept a placement between "keep everything" and the unconstrained
// optimum.
//
// The bounded algorithm is keep-k-of-m: run the unconstrained selection,
// then greedily swap current members for members of that optimal set, one
// swap at a time, always taking the swap that most improves the criterion
// score (ties: lowest outgoing id, then lowest incoming id), until the
// budget is exhausted or no swap improves the score. Members that became
// ineligible (host removed, below requirements) are replaced first; such
// forced replacements always happen, count against the reported migration
// count, and may exceed the budget.

#include <string>
#include <vector>

#include "select/algorithms.hpp"
#include "select/options.hpp"
#include "topo/graph.hpp"

namespace netsel::select {
class SelectionContext;
struct SetEvaluation;
}

namespace netsel::api {

struct ReselectOptions {
  /// Maximum migrations (nodes swapped in) per reselection; < 0 = unbounded
  /// (adopt the unconstrained optimum; the MigrationController's mode). 0
  /// replaces only the members forced out.
  int max_migrations = -1;
  select::Criterion criterion = select::Criterion::Balanced;
  /// num_nodes is overridden with the current set's size.
  select::SelectionOptions selection;
};

struct ReselectResult {
  bool feasible = false;
  /// Early-exit signal: re-selection could not run (unconstrained selection
  /// infeasible, or forced replacements could not be refilled) and `nodes`
  /// is the *unchanged current placement*, still in force. Distinguishes
  /// "kept a valid placement" (kept_current, objective_after scores the
  /// kept set) from a placement that was actually re-solved (feasible).
  /// A scheduler's release/rebalance path keeps the job where it runs when
  /// this is set instead of treating the decision as a failure.
  bool kept_current = false;
  /// The new placement (ascending node ids).
  std::vector<topo::NodeId> nodes;
  /// nodes \ current and current \ nodes (ascending).
  std::vector<topo::NodeId> migrated_in;
  std::vector<topo::NodeId> migrated_out;
  int migrations = 0;
  /// Criterion score (evaluate_set-based) of the current set, the returned
  /// set, and the unconstrained optimum — the quality-vs-migration
  /// trade-off in one record. On a kept_current exit objective_after equals
  /// objective_before (the kept set is the returned set); it is 0 only when
  /// that set is genuinely unevaluable (a member was removed from the
  /// topology).
  double objective_before = 0.0;
  double objective_after = 0.0;
  double objective_unbounded = 0.0;
  std::string note;
};

/// Criterion score of an evaluated set: min_cpu for MaxCompute, min pairwise
/// bandwidth for MaxBandwidth, the balanced objective otherwise; 0 when the
/// set is not connected through usable links.
double criterion_score(select::Criterion c, const select::SetEvaluation& ev);

/// Bounded re-placement of `current` (its size fixes m). Pure function of
/// the context's snapshot; deterministic. Throws std::invalid_argument for
/// an empty `current`, and, before anything reads them, for options that
/// select::validate_options rejects with num_nodes = current.size().
ReselectResult reselect(const select::SelectionContext& ctx,
                        const std::vector<topo::NodeId>& current,
                        const ReselectOptions& opt);

/// True when reselect(ctx, current, opt) provably returns `current` with 0
/// migrations, so a caller may skip it (and the O(V) eligibility masks it
/// would build). That holds when the budget is bounded (>= 0), every member
/// still passes select::node_eligible under opt.selection (nothing is forced
/// out), and either the budget is 0 or no single swap can beat the current
/// score. The criterion score of a set of m >= 2 nodes is the minimum of its
/// member terms (cpu) and pair terms (path bandwidth, 0 for an unreached
/// pair), so a swap that replaces member o can raise it only if every term
/// at or below the current score involves o. Never true when reselect would
/// move a node; it may be false when reselect keeps the set anyway (no
/// candidate happens to beat the score). O(m^2) row reads, like one
/// evaluate_set. False for an empty `current`; otherwise throws on the
/// options reselect rejects, whatever the budget.
bool reselect_stays(const select::SelectionContext& ctx,
                    const std::vector<topo::NodeId>& current,
                    const ReselectOptions& opt);

}  // namespace netsel::api
