#pragma once
// Shared types for the node-selection algorithms (paper §3).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "remos/snapshot.hpp"
#include "topo/graph.hpp"

namespace netsel::select {

/// Optimisation criterion (paper §3.2).
enum class Criterion {
  MaxCompute,    ///< maximise available computation capacity
  MaxBandwidth,  ///< maximise minimum pairwise available bandwidth (Fig. 2)
  Balanced,      ///< maximise min(fractional cpu, fractional bw) (Fig. 3)
};

const char* criterion_name(Criterion c);

/// Knobs for the exact branch-and-bound selector (select/bnb.hpp). When
/// `enabled`, select_nodes routes the criterion to the B&B search instead
/// of the greedy fast path; the search optimises the *true* pairwise
/// objective (brute-force semantics) and either proves optimality or, when
/// a budget is hit, returns the best set found plus a sound upper bound on
/// the optimum (SelectionResult::objective_bound / exact_certified).
struct ExactOptions {
  bool enabled = false;
  /// Search-node expansions before the search degrades to a certified
  /// bound. 0 = unlimited (the search runs to proof).
  std::uint64_t node_budget = 150'000;
  /// Wall-clock budget in seconds; 0 = none. Nondeterministic by nature —
  /// leave at 0 wherever bit-reproducible output matters (tests, committed
  /// benches) and bound work with node_budget instead.
  double time_budget_s = 0.0;
  /// Stop early once incumbent >= (1 - gap_tolerance) * bound; the result
  /// is then certified to be within that relative gap. 0 = prove exactly.
  double gap_tolerance = 0.0;
  /// Candidate-pool ceiling: above it the dense pairwise matrices are not
  /// built and the result degrades to the greedy incumbent with an
  /// unbounded (+inf) objective_bound.
  std::size_t max_pool = 1024;
  /// Open-list ceiling: when exceeded, the worst half of the frontier is
  /// evicted and their best bound is folded into objective_bound (the run
  /// can then no longer certify exactness, only the bound).
  std::size_t max_open = 2'000'000;
  /// Drop candidates dominated by >= m strictly-lower-id siblings on the
  /// same leaf switch (select/prune.hpp's keys, id-ordered so the
  /// brute-force lexicographic tie-break is preserved bit-exactly).
  bool prune_dominance = true;
  /// Seed the incumbent from the matching greedy selector before searching.
  bool warm_start = true;
};

struct SelectionOptions {
  /// Number of nodes required for execution (the paper's m).
  int num_nodes = 1;

  /// Prioritisation of computation vs communication (§3.3): the balanced
  /// objective becomes min(mincpu / cpu_priority, minbw / bw_priority).
  /// cpu_priority = 2 makes 50% CPU equivalent to 25% bandwidth, matching
  /// the paper's example.
  double cpu_priority = 1.0;
  double bw_priority = 1.0;

  /// Reference node type for heterogeneous systems (§3.3): fractional cpu
  /// availability is measured in units of this capacity.
  double reference_cpu_capacity = 1.0;
  /// Reference link capacity in bits/second for heterogeneous links (§3.3).
  /// 0 means "homogeneous": each link's fraction is bw/maxbw of that link.
  double reference_bw = 0.0;

  /// Fixed requirements (§3.3): links below min_bw_bps are unusable;
  /// nodes below min_cpu_fraction (in reference units) are ineligible.
  double min_bw_bps = 0.0;
  double min_cpu_fraction = 0.0;
  /// Memory requirement (§3.4 extension): nodes with less free memory are
  /// ineligible. Nodes whose topology does not model memory report 0 free
  /// and therefore never satisfy a positive requirement.
  double min_free_memory_bytes = 0.0;

  /// Optional eligibility mask over *all* node ids (empty = every compute
  /// node is eligible). Used by the application-spec layer for pinned or
  /// architecture-constrained groups.
  std::vector<char> eligible;

  /// Drop dominated degree-1 candidates before ranking (select/prune.hpp).
  /// Provably winner-preserving; exposed so benchmarks and the oracle tests
  /// can compare pruned vs unpruned runs.
  bool prune_dominated = true;

  /// Eligible-candidate count below which prune_dominated short-circuits
  /// (returns the eligibility mask unchanged — trivially winner-preserving):
  /// small selections finish in well under a millisecond, so the prune
  /// pass's own O(V + E) grouping cannot pay for itself there. 0 always
  /// prunes (the unit-test mode).
  int prune_min_candidates = 512;

  /// Ablation: compute the Fig.-3 bandwidth term over only the links on
  /// paths between the chosen nodes (a Steiner restriction) instead of all
  /// links of the surviving component as the paper specifies.
  bool steiner_restricted = false;

  /// Extension: the paper's Fig.-3 loop stops at the first iteration that
  /// brings no strict improvement, which can stall on plateaus of
  /// equal-bandwidth links. With exhaustive_balanced the sweep continues
  /// until no component with m eligible nodes remains and the best set seen
  /// is returned (same O(n^2) bound; compared in bench_ablation).
  bool exhaustive_balanced = false;

  /// Exact branch-and-bound mode (select/bnb.hpp); disabled by default, so
  /// every existing path keeps its greedy selector.
  ExactOptions exact;
};

struct SelectionResult {
  bool feasible = false;
  std::vector<topo::NodeId> nodes;
  /// Minimum fractional cpu (reference units) among the selected nodes.
  double min_cpu = 0.0;
  /// The algorithm's bandwidth figure of merit: minimum fractional
  /// available bandwidth over the relevant link set (criterion-dependent).
  double min_bw_fraction = 0.0;
  /// Criterion value the algorithm maximised.
  double objective = 0.0;
  /// Number of edge-removal iterations performed (complexity diagnostics).
  int iterations = 0;
  std::string note;
  /// Exact (B&B) mode only: sound upper bound on the optimal objective —
  /// equal to `objective` when `exact_certified` — and whether the search
  /// proved optimality before a budget hit. Greedy paths leave the
  /// defaults (0 / false).
  double objective_bound = 0.0;
  bool exact_certified = false;
};

/// Fractional availability of link `l` under the options' reference rules.
double link_fraction(const remos::NetworkSnapshot& snap, topo::LinkId l,
                     const SelectionOptions& opt);

/// Fractional cpu availability of node `n` under the reference rules.
double node_cpu(const remos::NetworkSnapshot& snap, topo::NodeId n,
                const SelectionOptions& opt);

/// True when node `n` may be selected (compute, eligible mask, min-cpu
/// requirement).
bool node_eligible(const remos::NetworkSnapshot& snap, topo::NodeId n,
                   const SelectionOptions& opt);

/// Initial link-active mask: all links with available bw >= min_bw_bps.
std::vector<char> initial_link_mask(const remos::NetworkSnapshot& snap,
                                    const SelectionOptions& opt);

/// Validate options against a snapshot; throws std::invalid_argument on
/// nonsense (m < 1, a NaN or infinite value, bad priorities, mask size
/// mismatch).
void validate_options(const remos::NetworkSnapshot& snap,
                      const SelectionOptions& opt);

}  // namespace netsel::select
