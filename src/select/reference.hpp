#pragma once
// The pre-SelectionContext ("naive") selection paths, retained verbatim:
//
//   - the literal Fig. 2 loop (delete min-bandwidth edge, recompute
//     connected components, O(E) sweeps per deletion),
//   - the literal Fig. 3 loop (same, by fractional bandwidth, re-evaluating
//     every surviving component each iteration),
//   - the one-sweep max-compute selection,
//   - the BFS-per-pair set evaluation.
//
// They serve two purposes: (1) the golden-equivalence oracle — the
// refactored context-based algorithms must select identical node sets
// (tests/test_select_context.cpp) — and
// (2) the general-case fallback for inputs outside the fast kernels'
// domain (the Steiner-restricted ablation, whose bandwidth term is not a
// per-component constant).
//
// reference_evaluate_set keeps the historical single-node convention
// (min_pair_bw = +infinity); the production evaluate_set now reports the
// finite NIC-availability convention instead (see select/objective.hpp).

#include <vector>

#include "remos/snapshot.hpp"
#include "select/objective.hpp"
#include "select/options.hpp"
#include "topo/graph.hpp"

namespace netsel::select::detail {

SetEvaluation reference_evaluate_set(const remos::NetworkSnapshot& snap,
                                     const std::vector<topo::NodeId>& nodes,
                                     const SelectionOptions& opt = {});

SelectionResult reference_select_max_compute(const remos::NetworkSnapshot& snap,
                                             const SelectionOptions& opt);

SelectionResult reference_select_max_bandwidth(
    const remos::NetworkSnapshot& snap, const SelectionOptions& opt);

SelectionResult reference_select_balanced(const remos::NetworkSnapshot& snap,
                                          const SelectionOptions& opt);

}  // namespace netsel::select::detail
