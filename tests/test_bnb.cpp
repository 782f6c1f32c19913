// Tests for the exact branch-and-bound selector (select/bnb.hpp).
//
// The headline claim is *bit-exactness*: wherever the brute-force oracle
// can run, the B&B must return the same feasibility flag, the same node
// ids, and the same objective bits — including the oracle's lexicographic
// tie-break (first optimal subset in enumeration order). The fuzz sweep
// runs every synthetic family at oracle-reachable sizes across seeds,
// option variants, m values, and criteria. Budget degradation is checked
// for soundness (incumbent <= bound, optimum <= bound, never a failure),
// the exact dominance mask for lex-safe winner preservation, and the whole
// search for determinism across warm-start settings.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "remos/snapshot.hpp"
#include "select/algorithms.hpp"
#include "select/bnb.hpp"
#include "select/brute_force.hpp"
#include "select/context.hpp"
#include "select/prune.hpp"
#include "topo/synthetic.hpp"

namespace netsel::select {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Instance {
  std::string what;
  std::unique_ptr<topo::TopologyGraph> graph;
  std::unique_ptr<remos::NetworkSnapshot> snap;
};

/// Every generated topology family at oracle-reachable host counts, with
/// seeded loads and link availabilities (remos::apply_synthetic_load).
std::vector<Instance> instances(std::uint64_t seed) {
  std::vector<Instance> out;
  {
    auto ft = topo::fat_tree_for_hosts(24, 6, 2.0, seed);
    ft.cpu_jitter = 0.3;  // heterogeneous hosts exercise the cpu terms
    Instance inst;
    inst.what = "fat_tree seed " + std::to_string(seed);
    inst.graph = std::make_unique<topo::TopologyGraph>(topo::fat_tree(ft));
    out.push_back(std::move(inst));
  }
  {
    topo::CampusWanOptions cw;
    cw.campuses = 2;
    cw.buildings_per_campus = 2;
    cw.hosts_per_building = 3;
    cw.seed = seed;
    Instance inst;
    inst.what = "campus_wan seed " + std::to_string(seed);
    inst.graph = std::make_unique<topo::TopologyGraph>(topo::campus_wan(cw));
    out.push_back(std::move(inst));
  }
  {
    topo::RandomCoreEdgeOptions ce;
    ce.core_switches = 4;
    ce.edge_switches = 8;
    ce.hosts = 32;  // cyclic: BFS-path bottlenecks, orientation-sensitive
    ce.seed = seed;
    Instance inst;
    inst.what = "random_core_edge seed " + std::to_string(seed);
    inst.graph =
        std::make_unique<topo::TopologyGraph>(topo::random_core_edge(ce));
    out.push_back(std::move(inst));
  }
  for (auto& inst : out) {
    inst.snap = std::make_unique<remos::NetworkSnapshot>(*inst.graph);
    remos::apply_synthetic_load(*inst.snap, seed * 31 + 7);
  }
  return out;
}

/// Option variants covering the knobs that feed the exact objective
/// (fractions, priorities, fixed requirements, eligibility).
std::vector<std::pair<std::string, SelectionOptions>> option_variants() {
  std::vector<std::pair<std::string, SelectionOptions>> out;
  out.emplace_back("base", SelectionOptions{});
  SelectionOptions opt;
  opt.min_bw_bps = 40 * topo::kMbps;
  out.emplace_back("min_bw", opt);
  opt = {};
  opt.reference_bw = topo::k100Mbps;
  out.emplace_back("reference_bw", opt);
  opt = {};
  opt.cpu_priority = 2.0;
  opt.bw_priority = 0.5;
  out.emplace_back("priorities", opt);
  opt = {};
  opt.min_cpu_fraction = 0.6;
  out.emplace_back("min_cpu", opt);
  return out;
}

std::uint64_t choose(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  std::uint64_t r = 1;
  for (std::uint64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

std::size_t eligible_count(const SelectionContext& ctx,
                           const SelectionOptions& opt) {
  std::size_t n = 0;
  for (char e : ctx.eligibility(opt)) n += e ? 1 : 0;
  return n;
}

/// Sizes the brute force reaches comfortably in a sanitizer build.
constexpr std::uint64_t kOracleSubsetCap = 1'000'000;

void expect_bit_exact(const BnbResult& bnb, const BruteForceResult& bf,
                      const std::string& what) {
  ASSERT_EQ(bnb.feasible, bf.feasible) << what;
  EXPECT_TRUE(bnb.certified) << what;
  EXPECT_EQ(bnb.stop, BnbStop::Proven) << what;
  if (!bf.feasible) {
    EXPECT_EQ(bnb.upper_bound, -kInf) << what;
    return;
  }
  EXPECT_EQ(bnb.nodes, bf.nodes) << what;
  // Bit-exact, not almost-equal: == on the doubles (inf == inf holds).
  EXPECT_EQ(bnb.objective, bf.objective) << what;
  EXPECT_EQ(bnb.upper_bound, bnb.objective) << what;
}

TEST(BnbOracle, MatchesBruteForceBitExactlyOnAllFamilies) {
  for (std::uint64_t seed : {1u, 2u}) {
    for (const auto& inst : instances(seed)) {
      SelectionContext ctx(*inst.snap);
      for (const auto& [vname, base] : option_variants()) {
        for (int m : {1, 2, 4, 6, 8}) {
          SelectionOptions opt = base;
          opt.num_nodes = m;
          opt.exact.node_budget = 0;  // run to proof
          const std::size_t pool = eligible_count(ctx, opt);
          if (choose(pool, static_cast<std::uint64_t>(m)) > kOracleSubsetCap)
            continue;
          for (Criterion c : {Criterion::MaxCompute, Criterion::MaxBandwidth,
                              Criterion::Balanced}) {
            const std::string what = inst.what + " " + vname +
                                     " m=" + std::to_string(m) + " " +
                                     criterion_name(c);
            const auto bf = brute_force_select(ctx, opt, c);
            expect_bit_exact(branch_and_bound_select(ctx, opt, c), bf, what);
          }
        }
      }
    }
  }
}

TEST(BnbOracle, DominanceAndWarmStartTogglesPreserveTheAnswer) {
  for (const auto& inst : instances(1)) {
    SelectionContext ctx(*inst.snap);
    for (int m : {2, 4, 8}) {
      SelectionOptions opt;
      opt.num_nodes = m;
      opt.exact.node_budget = 0;
      const std::size_t pool = eligible_count(ctx, opt);
      if (choose(pool, static_cast<std::uint64_t>(m)) > kOracleSubsetCap)
        continue;
      for (Criterion c : {Criterion::MaxCompute, Criterion::MaxBandwidth,
                          Criterion::Balanced}) {
        const std::string what =
            inst.what + " m=" + std::to_string(m) + " " + criterion_name(c);
        const auto bf = brute_force_select(ctx, opt, c);
        for (bool prune : {true, false}) {
          for (bool warm : {true, false}) {
            SelectionOptions v = opt;
            v.exact.prune_dominance = prune;
            v.exact.warm_start = warm;
            expect_bit_exact(branch_and_bound_select(ctx, v, c), bf,
                             what + " prune=" + std::to_string(prune) +
                                 " warm=" + std::to_string(warm));
          }
        }
      }
    }
  }
}

TEST(BnbBudget, DegradedRunsReturnSoundBounds) {
  for (const auto& inst : instances(1)) {
    SelectionContext ctx(*inst.snap);
    SelectionOptions opt;
    opt.num_nodes = 6;
    const std::size_t pool = eligible_count(ctx, opt);
    if (choose(pool, 6) > kOracleSubsetCap) continue;
    for (Criterion c : {Criterion::MaxCompute, Criterion::MaxBandwidth,
                        Criterion::Balanced}) {
      SelectionOptions full = opt;
      full.exact.node_budget = 0;
      const auto bf = brute_force_select(ctx, full, c);
      for (std::uint64_t budget : {1u, 4u, 16u, 64u, 1024u}) {
        for (bool warm : {true, false}) {
          SelectionOptions v = opt;
          v.exact.node_budget = budget;
          v.exact.warm_start = warm;
          const auto r = branch_and_bound_select(ctx, v, c);
          const std::string what = inst.what + " " + criterion_name(c) +
                                   " budget=" + std::to_string(budget) +
                                   " warm=" + std::to_string(warm);
          // The incumbent never exceeds the certified bound, and the true
          // optimum never does either — that is what makes it a bound.
          if (r.feasible) EXPECT_LE(r.objective, r.upper_bound) << what;
          if (bf.feasible) {
            EXPECT_LE(bf.objective, r.upper_bound) << what;
            if (r.feasible) EXPECT_LE(r.objective, bf.objective) << what;
          }
          if (r.certified) {
            ASSERT_EQ(r.feasible, bf.feasible) << what;
            if (r.feasible) EXPECT_EQ(r.nodes, bf.nodes) << what;
          } else {
            EXPECT_NE(r.stop, BnbStop::Proven) << what;
          }
        }
      }
      // A tiny open list forces evictions; the result degrades to a sound
      // bound instead of failing.
      SelectionOptions v = opt;
      v.exact.node_budget = 0;
      v.exact.max_open = 8;
      const auto r = branch_and_bound_select(ctx, v, c);
      if (bf.feasible) {
        EXPECT_LE(bf.objective, r.upper_bound) << inst.what;
        if (r.feasible) EXPECT_LE(r.objective, bf.objective) << inst.what;
      }
    }
  }
}

TEST(BnbBudget, GapToleranceCertifiesTheStatedGap) {
  auto insts = instances(1);
  SelectionContext ctx(*insts[0].snap);
  SelectionOptions opt;
  opt.num_nodes = 6;
  opt.exact.node_budget = 0;
  opt.exact.gap_tolerance = 0.5;
  for (Criterion c : {Criterion::MaxCompute, Criterion::Balanced}) {
    const auto r = branch_and_bound_select(ctx, opt, c);
    ASSERT_TRUE(r.feasible);
    EXPECT_LE(r.objective, r.upper_bound);
    if (r.stop == BnbStop::GapReached)
      EXPECT_GE(r.objective, (1.0 - opt.exact.gap_tolerance) * r.upper_bound);
  }
}

// ------------------------------------------------------ exact mask units

/// A star: one switch, degree-1 hosts. In the heterogeneous version host i
/// strictly dominates every host j > i on all three keys; in the
/// homogeneous version all hosts tie exactly.
struct Star {
  topo::TopologyGraph g;
  std::vector<topo::NodeId> hosts;
  topo::NodeId sw;
};

Star make_star(bool heterogeneous) {
  Star s;
  s.sw = s.g.add_network("sw");
  for (int i = 0; i < 6; ++i) {
    double capacity = heterogeneous ? 2.0 - 0.1 * i : 1.0;
    auto h = s.g.add_compute("h" + std::to_string(i), capacity);
    double bw = heterogeneous ? (100.0 - i) * topo::kMbps : topo::k100Mbps;
    s.g.add_link(s.sw, h, bw);
    s.hosts.push_back(h);
  }
  s.g.validate();
  return s;
}

std::vector<char> eligible_mask(const remos::NetworkSnapshot& snap,
                                const SelectionOptions& opt) {
  std::vector<char> elig(snap.graph().node_count(), 0);
  for (std::size_t i = 0; i < snap.graph().node_count(); ++i)
    elig[i] = node_eligible(snap, static_cast<topo::NodeId>(i), opt) ? 1 : 0;
  return elig;
}

TEST(ExactDominatedMask, PrunesTiesTowardLowerIdsUnlikeTheGreedyMask) {
  // All six hosts tie on every key: the greedy mask must keep them all
  // (test_select_prune covers that), but the exact mask may — and does —
  // prune ties, because a strictly-lower-id dominator makes the swap
  // lexicographically improving at equal value.
  auto s = make_star(/*heterogeneous=*/false);
  remos::NetworkSnapshot snap(s.g);
  SelectionOptions opt;
  opt.num_nodes = 2;
  auto elig = eligible_mask(snap, opt);
  auto cand = exact_dominated_candidate_mask(snap, opt, elig);
  EXPECT_TRUE(cand[static_cast<std::size_t>(s.hosts[0])]);
  EXPECT_TRUE(cand[static_cast<std::size_t>(s.hosts[1])]);
  for (std::size_t i = 2; i < s.hosts.size(); ++i)
    EXPECT_FALSE(cand[static_cast<std::size_t>(s.hosts[i])]) << "host " << i;

  // And the pruned search still returns the brute-force answer: the
  // lexicographically first optimal pair.
  SelectionContext ctx(snap);
  const auto bf = brute_force_select(ctx, opt, Criterion::MaxBandwidth);
  const auto r = branch_and_bound_select(ctx, opt, Criterion::MaxBandwidth);
  ASSERT_TRUE(bf.feasible);
  EXPECT_EQ(r.nodes, bf.nodes);
  EXPECT_EQ(r.objective, bf.objective);
  EXPECT_TRUE(r.certified);
  EXPECT_GE(r.stats.pool_dominated, 4u);
}

TEST(ExactDominatedMask, KeepsStrictDominatorsAndAppliesAtMEqualsOne) {
  auto s = make_star(/*heterogeneous=*/true);
  remos::NetworkSnapshot snap(s.g);
  SelectionOptions opt;
  opt.num_nodes = 1;  // subset semantics: the mask applies even at m = 1
  auto elig = eligible_mask(snap, opt);
  auto cand = exact_dominated_candidate_mask(snap, opt, elig);
  EXPECT_TRUE(cand[static_cast<std::size_t>(s.hosts[0])]);
  for (std::size_t i = 1; i < s.hosts.size(); ++i)
    EXPECT_FALSE(cand[static_cast<std::size_t>(s.hosts[i])]) << "host " << i;
}

// ------------------------------------------------------------ edge cases

TEST(BnbEdges, InfeasibleAndDegradedModes) {
  auto insts = instances(1);
  SelectionContext ctx(*insts[0].snap);

  // More slots than hosts: proven infeasible, like the oracle.
  SelectionOptions opt;
  opt.num_nodes = 1000;
  const auto inf = branch_and_bound_select(ctx, opt, Criterion::Balanced);
  EXPECT_FALSE(inf.feasible);
  EXPECT_TRUE(inf.certified);
  EXPECT_EQ(inf.upper_bound, -kInf);

  // A pool cap below the candidate count degrades to the greedy incumbent
  // with an unbounded gap — never a failure.
  opt.num_nodes = 4;
  opt.exact.max_pool = 2;
  const auto capped = branch_and_bound_select(ctx, opt, Criterion::Balanced);
  EXPECT_EQ(capped.stop, BnbStop::PoolLimit);
  EXPECT_FALSE(capped.certified);
  EXPECT_TRUE(capped.feasible);
  EXPECT_EQ(capped.upper_bound, kInf);
  EXPECT_EQ(capped.nodes.size(), 4u);
}

TEST(BnbEdges, SelectNodesRoutesExactModeFirstClass) {
  auto insts = instances(1);
  SelectionContext ctx(*insts[0].snap);
  SelectionOptions opt;
  opt.num_nodes = 4;
  opt.exact.enabled = true;
  opt.exact.node_budget = 0;
  for (Criterion c : {Criterion::MaxCompute, Criterion::MaxBandwidth,
                      Criterion::Balanced}) {
    const auto bf = brute_force_select(ctx, opt, c);
    const auto r = select_nodes(c, ctx, opt);
    ASSERT_EQ(r.feasible, bf.feasible) << criterion_name(c);
    EXPECT_EQ(r.nodes, bf.nodes) << criterion_name(c);
    EXPECT_EQ(r.objective, bf.objective) << criterion_name(c);
    EXPECT_TRUE(r.exact_certified) << criterion_name(c);
    EXPECT_EQ(r.objective_bound, r.objective) << criterion_name(c);
    EXPECT_EQ(r.note, "exact: certified optimal") << criterion_name(c);
    // The greedy answer scored on the exact scale never beats the optimum.
    SelectionOptions greedy = opt;
    greedy.exact.enabled = false;
    const auto g = select_nodes(c, ctx, greedy);
    if (g.feasible && bf.feasible)
      EXPECT_LE(exact_set_value(ctx, opt, c, g.nodes), bf.objective)
          << criterion_name(c);
  }
}

}  // namespace
}  // namespace netsel::select
