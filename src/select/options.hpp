#pragma once
// Shared types for the node-selection algorithms (paper §3).

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
