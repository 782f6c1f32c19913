#pragma once
// Optimality-gap certification grid (ROADMAP: "Certify the whole exact
// grid"): how far from optimal are the greedy selectors, really?
//
// For every synthetic family x m x criterion cell the grid scores the
// greedy answer on the *exact* pairwise objective (select::exact_set_value,
// brute-force semantics) and runs the branch-and-bound selector under a
// deterministic node budget. The B&B returns either the certified optimum
// or an incumbent plus a sound upper bound, so every cell reports a
// rigorous bracket:  greedy <= optimum <= upper_bound, with
// greedy / upper_bound a guaranteed lower bound on the greedy selector's
// optimality ratio. Cells are marked `exact` (proof finished inside the
// budget) or `bound` (budget hit; the ratio is conservative) — never
// silently truncated.
//
// A second block sweeps the paper's fixed-constraint x prioritization
// combinations (Sec. 3.3): cpu/bw priority 1:1, 2:1, 1:2, each with and
// without a 40 Mbit/s fixed bandwidth requirement, on the balanced
// criterion — the quantification the paper only sketches.
//
// Everything is deterministic: node budgets (never wall-clock budgets),
// seeded synthetic load, serial search. The emitted values are
// bit-identical across machines and thread counts, which is what lets the
// ctest Golden.ExactGrid pin bench_exact's table byte for byte.

#include <cstdint>
#include <string>
#include <vector>

#include "select/options.hpp"

namespace netsel::exp {

/// One certification cell.
struct ExactCell {
  std::string family;    // fat_tree | campus_wan | random_core_edge
  std::string variant;   // "" for the base grid; e.g. "cpu2_bw1_min40" for
                         // the constraint x priority block
  int m = 0;
  select::Criterion criterion = select::Criterion::Balanced;
  std::size_t pool = 0;  // candidate pool after dominance pruning

  bool greedy_feasible = false;
  double greedy_value = 0.0;  // greedy set on the exact scale (-inf: the
                              // greedy answer violates the pairwise min_bw)
  bool exact_feasible = false;
  double exact_value = 0.0;   // B&B incumbent (optimal when certified)
  double upper_bound = 0.0;   // sound bound on the optimum
  bool certified = false;     // proof finished inside the node budget
  std::string stop;           // select::bnb_stop_name
  std::uint64_t expanded = 0;
  std::uint64_t pushed = 0;
  double seconds = 0.0;       // B&B wall time (informational, not gated)

  /// greedy_value / upper_bound when both are finite and positive — a
  /// guaranteed lower bound on the greedy optimality ratio (== the true
  /// ratio when certified). NaN when undefined (infeasible greedy).
  double greedy_ratio() const;
};

struct ExactGridOptions {
  std::uint64_t seed = 7177;
  /// Hosts per family instance (the paper-scale grid; far beyond the
  /// brute-force oracle's reach at every m below).
  int hosts = 120;
  std::vector<int> ms = {4, 8, 16, 32, 64};
  /// Deterministic search budget per cell (expansions, not wall-clock).
  std::uint64_t node_budget = 20'000;
  /// Open-list cap per cell: bounds memory; evictions degrade the cell
  /// from exact to bound, which the cell then reports honestly.
  std::size_t max_open = 500'000;
  /// Also run the fixed-constraint x prioritization block (balanced
  /// criterion, m = 8, fat-tree instance).
  bool constraint_cells = true;
  bool verbose = false;
};

/// Run the full grid. Deterministic for a fixed option set.
std::vector<ExactCell> run_exact_grid(const ExactGridOptions& opt = {});

/// Human-readable table: one block per family, the constraint block last.
std::string format_exact_grid(const std::vector<ExactCell>& cells,
                              const ExactGridOptions& opt);

/// Machine-readable grid (one line per cell).
std::string exact_grid_csv(const std::vector<ExactCell>& cells,
                           const ExactGridOptions& opt);

}  // namespace netsel::exp
