#pragma once
// Latency-aware node selection — the extension the paper defers to future
// work (§3.4: "A number of other factors can affect application
// performance, some examples being latency on the links ... Remos API
// includes this information and we plan to take these factors into
// consideration in future work").
//
// Latency is additive along a path, so the Fig. 2 edge-deletion trick (which
// exploits the bottleneck structure of bandwidth) does not apply. Instead we
// use a best-center search: for every candidate center node, take the m
// eligible compute nodes closest to it by path latency; the candidate set's
// exact maximum pairwise latency is then evaluated and the best set kept.
// On trees this is a strong heuristic (certified near-optimal against brute
// force in the tests); it runs in O(n^2) like the paper's algorithms.

#include "remos/snapshot.hpp"
#include "select/options.hpp"

namespace netsel::select {

/// Select m nodes minimising the maximum pairwise path latency. Ties are
/// broken toward higher minimum cpu, then lower node ids. The result's
/// `objective` is the negated max pairwise latency (so that "greater is
/// better" holds like the other criteria); `note` carries the latency in
/// seconds.
SelectionResult select_min_latency(const remos::NetworkSnapshot& snap,
                                   const SelectionOptions& opt);

/// Balanced (Fig. 3) optimisation under a latency ceiling: maximise
/// min(mincpu/kc, minbw/kb) subject to every pairwise path latency being at
/// most `max_pair_latency` seconds. Runs the unconstrained Fig. 3 algorithm
/// first; if its result violates the ceiling, falls back to a best-center
/// enumeration of latency-feasible sets (nodes within ceiling/2 of a common
/// center are pairwise within the ceiling) and maximises the exact pairwise
/// balanced objective among them.
SelectionResult select_balanced_latency_bound(
    const remos::NetworkSnapshot& snap, const SelectionOptions& opt,
    double max_pair_latency);

}  // namespace netsel::select
