// Golden-equivalence suite for the SelectionContext-based algorithm
// implementations: the context fast paths (offline reverse union-find for
// Fig. 2, the merge forest for Fig. 3, cached bottleneck rows for
// evaluate_set and brute force) must reproduce the retained naive reference
// implementations (select/reference.hpp) *exactly* — identical node sets,
// bit-identical objective figures, identical iteration counts — across a
// broad randomized sweep of topologies, loads and option combinations. Also
// covers the context's epoch-invalidation contract, the cyclic-graph
// behaviour, and the finite single-node evaluation convention.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "select/algorithms.hpp"
#include "select/brute_force.hpp"
#include "select/context.hpp"
#include "select/objective.hpp"
#include "select/reference.hpp"
#include "topo/generators.hpp"
#include "topo/synthetic.hpp"

namespace netsel::select {
namespace {

struct Instance {
  std::unique_ptr<topo::TopologyGraph> graph;
  std::unique_ptr<remos::NetworkSnapshot> snap;
};

/// A randomized tree topology + snapshot, everything derived from the seed:
/// size, shape, loads, availabilities.
Instance random_instance(std::uint64_t seed) {
  util::Rng rng(seed * 7919 + 1);
  topo::RandomTreeOptions topt;
  topt.compute_nodes = static_cast<int>(rng.uniform_int(5, 40));
  topt.network_nodes = static_cast<int>(rng.uniform_int(2, 10));
  topt.hosts_are_leaves = rng.uniform_int(0, 1) == 0;
  Instance inst;
  inst.graph =
      std::make_unique<topo::TopologyGraph>(topo::random_tree(rng, topt));
  inst.snap = std::make_unique<remos::NetworkSnapshot>(*inst.graph);
  for (auto n : inst.graph->compute_nodes())
    inst.snap->set_loadavg(n, rng.uniform(0.0, 3.0));
  for (std::size_t l = 0; l < inst.graph->link_count(); ++l) {
    auto id = static_cast<topo::LinkId>(l);
    inst.snap->set_bw(id, rng.uniform(0.05, 1.0) * inst.snap->maxbw(id));
  }
  return inst;
}

/// Randomized options derived from the same seed: m, priorities, thresholds,
/// reference capacities, eligibility mask.
SelectionOptions random_options(std::uint64_t seed, const Instance& inst) {
  util::Rng rng(seed * 104729 + 2);
  SelectionOptions opt;
  opt.num_nodes = static_cast<int>(rng.uniform_int(1, 8));
  opt.cpu_priority = rng.uniform_int(0, 2) == 0 ? 2.0 : 1.0;
  opt.bw_priority = rng.uniform_int(0, 2) == 0 ? 0.5 : 1.0;
  if (rng.uniform_int(0, 2) == 0) opt.reference_bw = topo::k100Mbps;
  if (rng.uniform_int(0, 2) == 0)
    opt.min_bw_bps = rng.uniform(5.0, 60.0) * topo::kMbps;
  if (rng.uniform_int(0, 3) == 0) opt.min_cpu_fraction = rng.uniform(0.1, 0.5);
  if (rng.uniform_int(0, 2) == 0) {
    // Mask out ~1/4 of the compute nodes.
    opt.eligible.assign(inst.graph->node_count(), 0);
    for (auto n : inst.graph->compute_nodes())
      opt.eligible[static_cast<std::size_t>(n)] =
          rng.uniform_int(0, 3) == 0 ? 0 : 1;
  }
  return opt;
}

void expect_same_result(const SelectionResult& fast, const SelectionResult& ref,
                        const std::string& what) {
  ASSERT_EQ(fast.feasible, ref.feasible) << what;
  EXPECT_EQ(fast.nodes, ref.nodes) << what;
  EXPECT_EQ(fast.iterations, ref.iterations) << what;
  if (!fast.feasible) return;
  EXPECT_DOUBLE_EQ(fast.min_cpu, ref.min_cpu) << what;
  // The single-node bandwidth figures intentionally diverge: the reference
  // keeps the historical +inf convention, the production path reports the
  // finite NIC availability.
  if (fast.nodes.size() >= 2) {
    EXPECT_DOUBLE_EQ(fast.min_bw_fraction, ref.min_bw_fraction) << what;
    EXPECT_DOUBLE_EQ(fast.objective, ref.objective) << what;
  }
}

constexpr std::uint64_t kSweepSeeds = 120;  // >= 100 random topologies

TEST(GoldenEquivalence, MaxBandwidthMatchesReferenceLoop) {
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    auto inst = random_instance(seed);
    auto opt = random_options(seed, inst);
    SelectionContext ctx(*inst.snap);
    expect_same_result(select_max_bandwidth(ctx, opt),
                       detail::reference_select_max_bandwidth(*inst.snap, opt),
                       "fig2 seed " + std::to_string(seed));
  }
}

TEST(GoldenEquivalence, BalancedMatchesReferenceLoop) {
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    auto inst = random_instance(seed);
    auto opt = random_options(seed, inst);
    SelectionContext ctx(*inst.snap);
    expect_same_result(select_balanced(ctx, opt),
                       detail::reference_select_balanced(*inst.snap, opt),
                       "fig3 seed " + std::to_string(seed));
  }
}

TEST(GoldenEquivalence, ExhaustiveBalancedMatchesReferenceLoop) {
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    auto inst = random_instance(seed);
    auto opt = random_options(seed, inst);
    opt.exhaustive_balanced = true;
    SelectionContext ctx(*inst.snap);
    expect_same_result(select_balanced(ctx, opt),
                       detail::reference_select_balanced(*inst.snap, opt),
                       "fig3ex seed " + std::to_string(seed));
  }
}

TEST(GoldenEquivalence, MaxComputeMatchesReference) {
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    auto inst = random_instance(seed);
    auto opt = random_options(seed, inst);
    SelectionContext ctx(*inst.snap);
    expect_same_result(select_max_compute(ctx, opt),
                       detail::reference_select_max_compute(*inst.snap, opt),
                       "maxcpu seed " + std::to_string(seed));
  }
}

TEST(GoldenEquivalence, EvaluateSetMatchesReferenceBfs) {
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    auto inst = random_instance(seed);
    auto opt = random_options(seed, inst);
    auto computes = inst.graph->compute_nodes();
    util::Rng rng(seed * 31 + 5);
    // A few random subsets of size >= 2 per instance.
    for (int rep = 0; rep < 3; ++rep) {
      auto size =
          static_cast<std::size_t>(rng.uniform_int(
              2, static_cast<std::int64_t>(std::min<std::size_t>(
                     computes.size(), 6))));
      std::vector<topo::NodeId> nodes;
      for (std::size_t i = 0; i < size; ++i) {
        auto n = computes[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(computes.size()) - 1))];
        nodes.push_back(n);
      }
      std::sort(nodes.begin(), nodes.end());
      nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
      if (nodes.size() < 2) continue;
      SelectionContext ctx(*inst.snap);
      auto fast = evaluate_set(ctx, nodes, opt);
      auto ref = detail::reference_evaluate_set(*inst.snap, nodes, opt);
      EXPECT_EQ(fast.connected, ref.connected) << seed;
      EXPECT_DOUBLE_EQ(fast.min_cpu, ref.min_cpu) << seed;
      EXPECT_DOUBLE_EQ(fast.min_pair_bw, ref.min_pair_bw) << seed;
      EXPECT_DOUBLE_EQ(fast.min_pair_bw_fraction, ref.min_pair_bw_fraction)
          << seed;
      EXPECT_DOUBLE_EQ(fast.balanced, ref.balanced) << seed;
      EXPECT_DOUBLE_EQ(fast.max_pair_latency, ref.max_pair_latency) << seed;
    }
  }
}

TEST(GoldenEquivalence, BruteForceMatchesAcrossEntryPoints) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto inst = random_instance(seed);
    SelectionOptions opt;
    opt.num_nodes = 3;
    SelectionContext ctx(*inst.snap);
    for (Criterion c : {Criterion::MaxCompute, Criterion::MaxBandwidth,
                        Criterion::Balanced}) {
      auto via_ctx = brute_force_select(ctx, opt, c);
      auto via_snap = brute_force_select(*inst.snap, opt, c);
      EXPECT_EQ(via_ctx.feasible, via_snap.feasible);
      EXPECT_EQ(via_ctx.nodes, via_snap.nodes);
      EXPECT_DOUBLE_EQ(via_ctx.objective, via_snap.objective);
    }
  }
}

TEST(GoldenEquivalence, SteinerRestrictedFallsBackToReference) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    auto inst = random_instance(seed);
    auto opt = random_options(seed, inst);
    opt.steiner_restricted = true;
    SelectionContext ctx(*inst.snap);
    expect_same_result(select_balanced(ctx, opt),
                       detail::reference_select_balanced(*inst.snap, opt),
                       "steiner seed " + std::to_string(seed));
  }
}

/// A topology with a router cycle: sw0-sw1-sw2-sw0 plus hosts. With
/// `parallel`, three more links follow: a 155 Mbps twin of sw0-sw1, a
/// second h0-sw0 access link, and a second access link for h1 (on sw1) to
/// sw2. Deleting one of a parallel pair leaves its twin behind: a cycle
/// event, inside the two-node component {h0, sw0} once the sweep has cut
/// sw0's other links.
Instance cyclic_instance(std::uint64_t seed, bool parallel = false) {
  util::Rng rng(seed * 17 + 3);
  Instance inst;
  inst.graph = std::make_unique<topo::TopologyGraph>();
  auto& g = *inst.graph;
  auto sw0 = g.add_network("sw0");
  auto sw1 = g.add_network("sw1");
  auto sw2 = g.add_network("sw2");
  g.add_link(sw0, sw1, topo::k100Mbps);
  g.add_link(sw1, sw2, topo::k100Mbps);
  g.add_link(sw2, sw0, topo::k100Mbps);
  for (int i = 0; i < 9; ++i) {
    auto h = g.add_compute("h" + std::to_string(i));
    g.add_link(i % 3 == 0 ? sw0 : (i % 3 == 1 ? sw1 : sw2), h,
               topo::k100Mbps);
  }
  if (parallel) {
    g.add_link(sw0, sw1, topo::k155Mbps);
    g.add_link(sw0, g.find_node("h0").value(), topo::k100Mbps);
    g.add_link(sw2, g.find_node("h1").value(), topo::k100Mbps);
  }
  inst.snap = std::make_unique<remos::NetworkSnapshot>(g);
  for (auto n : g.compute_nodes())
    inst.snap->set_loadavg(n, rng.uniform(0.0, 2.0));
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    auto id = static_cast<topo::LinkId>(l);
    inst.snap->set_bw(id, rng.uniform(0.1, 1.0) * inst.snap->maxbw(id));
  }
  return inst;
}

TEST(CyclicGraphs, Fig2ReverseReplayHandlesCycles) {
  // The Fig. 2 offline replay is valid on any graph (feasibility is monotone
  // under deletion regardless of cycles); check it against the literal loop.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    auto inst = cyclic_instance(seed);
    ASSERT_FALSE(inst.graph->is_acyclic());
    SelectionOptions opt;
    opt.num_nodes = static_cast<int>(seed % 5) + 1;
    SelectionContext ctx(*inst.snap);
    expect_same_result(select_max_bandwidth(ctx, opt),
                       detail::reference_select_max_bandwidth(*inst.snap, opt),
                       "cyclic fig2 seed " + std::to_string(seed));
  }
}

TEST(CyclicGraphs, BalancedMergeForestHandlesCycles) {
  // Cycle deletions don't split a component — they raise its internal
  // min-fraction. The merge-forest replay records those as re-evaluation
  // events; check bit-identity against the literal loop on router cycles.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    auto inst = cyclic_instance(seed);
    SelectionOptions opt;
    opt.num_nodes = static_cast<int>(seed % 4) + 2;
    SelectionContext ctx(*inst.snap);
    EXPECT_FALSE(ctx.acyclic());
    expect_same_result(select_balanced(ctx, opt),
                       detail::reference_select_balanced(*inst.snap, opt),
                       "cyclic fig3 seed " + std::to_string(seed));
  }
}

TEST(CyclicGraphs, BalancedHandlesCyclesUnderGeneralisations) {
  // Same bit-identity with the §3.3 generalisations in play: reference
  // capacities (rounded fractions), priorities, fixed requirements, and the
  // exhaustive-sweep variant, all on cyclic graphs.
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    auto inst = cyclic_instance(seed);
    util::Rng rng(seed ^ 0xfeedULL);
    SelectionOptions opt;
    opt.num_nodes = static_cast<int>(seed % 4) + 1;
    if (rng.bernoulli(0.5)) opt.reference_bw = topo::k100Mbps;
    if (rng.bernoulli(0.5)) opt.cpu_priority = rng.uniform(0.5, 2.0);
    if (rng.bernoulli(0.5)) opt.bw_priority = rng.uniform(0.5, 2.0);
    if (rng.bernoulli(0.4)) opt.min_bw_bps = rng.uniform(0.0, 60e6);
    if (rng.bernoulli(0.4)) opt.min_cpu_fraction = rng.uniform(0.0, 0.5);
    opt.exhaustive_balanced = rng.bernoulli(0.5);
    SelectionContext ctx(*inst.snap);
    expect_same_result(select_balanced(ctx, opt),
                       detail::reference_select_balanced(*inst.snap, opt),
                       "cyclic general seed " + std::to_string(seed));
  }
}

/// Balanced options for m nodes under one of the eight on/off combinations
/// (bits 0, 1, 2 of `mix`) of a reference link capacity, a fixed 40 Mbps
/// bandwidth requirement and the exhaustive sweep.
SelectionOptions option_mix(int m, int mix) {
  SelectionOptions opt;
  opt.num_nodes = m;
  if (mix & 1) opt.reference_bw = topo::k100Mbps;
  if (mix & 2) opt.min_bw_bps = 40e6;
  opt.exhaustive_balanced = (mix & 4) != 0;
  return opt;
}

std::string mix_label(std::uint64_t seed, const SelectionOptions& opt) {
  return "seed " + std::to_string(seed) + " m " +
         std::to_string(opt.num_nodes) +
         (opt.reference_bw > 0.0 ? " reference_bw" : "") +
         (opt.min_bw_bps > 0.0 ? " min_bw" : "") +
         (opt.exhaustive_balanced ? " exhaustive" : " paper");
}

TEST(CyclicGraphs, BalancedMergeForestHandlesParallelLinks) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto inst = cyclic_instance(seed, /*parallel=*/true);
    for (int mix = 0; mix < 8; ++mix) {
      const auto opt = option_mix(static_cast<int>(seed % 4) + 1, mix);
      SelectionContext ctx(*inst.snap);
      expect_same_result(select_balanced(ctx, opt),
                         detail::reference_select_balanced(*inst.snap, opt),
                         "parallel " + mix_label(seed, opt));
    }
  }
}

TEST(CyclicGraphs, BalancedReadsDeltaPatchedOrderAfterLinkRemoval) {
  // Warm a context (both deletion orders cached), then remove links through
  // remove_link + notify_link_removed: the context erases them from its
  // cached orders in place, and the replay must read the patched order
  // exactly as a fresh sort would give it.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    for (int mix = 0; mix < 8; ++mix) {
      auto inst = cyclic_instance(seed, /*parallel=*/true);
      auto& g = *inst.graph;
      const auto opt = option_mix(static_cast<int>(seed % 4) + 1, mix);
      SelectionContext ctx(*inst.snap);
      (void)select_balanced(ctx, opt);
      (void)ctx.links_by_fraction(SelectionOptions{});
      (void)ctx.links_by_bw();
      // A ring link or the sw0-sw1 twin (ids 0-2, 12), a host's access
      // link (3-11), and one of the extra host links (13-14).
      util::Rng rng(seed * 31 + static_cast<std::uint64_t>(mix));
      const std::vector<std::int64_t> removed{
          rng.bernoulli(0.5) ? rng.uniform_int(0, 2) : 12,
          rng.uniform_int(3, 11), rng.uniform_int(13, 14)};
      for (const auto id : removed) {
        const auto l = static_cast<topo::LinkId>(id);
        g.remove_link(l);
        inst.snap->notify_link_removed(l);
      }
      const std::string what = "removal " + mix_label(seed, opt);
      expect_same_result(select_balanced(ctx, opt),
                         detail::reference_select_balanced(*inst.snap, opt),
                         what);
      SelectionContext fresh(*inst.snap);
      EXPECT_EQ(ctx.links_by_fraction(opt), fresh.links_by_fraction(opt))
          << what;
    }
  }
}

/// A ~600-host instance of one synthetic datacenter family, loaded with
/// remos::apply_synthetic_load: the shape the million-host cold query runs
/// on, small enough for the literal Fig. 3 loop.
enum class Family { FatTree2, FatTree3, CampusWan, CoreEdge };

Instance datacenter_instance(Family family, std::uint64_t seed) {
  Instance inst;
  switch (family) {
    case Family::FatTree2: {
      auto opt = topo::fat_tree_for_hosts(600, 24, 3.0, seed);  // 612 hosts
      opt.cpu_jitter = 0.25;
      inst.graph = std::make_unique<topo::TopologyGraph>(topo::fat_tree(opt));
      break;
    }
    case Family::FatTree3: {
      auto opt = topo::three_level_fat_tree_for_hosts(600, 12, 3.0, 1024,
                                                      seed);  // 648 hosts
      opt.cpu_jitter = 0.25;
      inst.graph = std::make_unique<topo::TopologyGraph>(
          topo::three_level_fat_tree(opt));
      break;
    }
    case Family::CampusWan: {
      topo::CampusWanOptions opt;
      opt.campuses = 4;
      opt.buildings_per_campus = 5;
      opt.hosts_per_building = 30;
      opt.seed = seed;
      inst.graph = std::make_unique<topo::TopologyGraph>(topo::campus_wan(opt));
      break;
    }
    case Family::CoreEdge: {
      topo::RandomCoreEdgeOptions opt;
      opt.core_switches = 8;
      opt.edge_switches = 30;
      opt.hosts = 600;
      opt.seed = seed;
      inst.graph =
          std::make_unique<topo::TopologyGraph>(topo::random_core_edge(opt));
      break;
    }
  }
  inst.snap = std::make_unique<remos::NetworkSnapshot>(*inst.graph);
  remos::apply_synthetic_load(*inst.snap, seed * 31 + 7);
  return inst;
}

void expect_balanced_equal_reference(const Instance& inst,
                                     const SelectionOptions& opt,
                                     const std::string& what) {
  SelectionContext ctx(*inst.snap);
  const auto fast = select_balanced(ctx, opt);
  const auto ref = detail::reference_select_balanced(*inst.snap, opt);
  ASSERT_TRUE(ref.feasible) << what;
  ASSERT_EQ(fast.feasible, ref.feasible) << what;
  EXPECT_EQ(fast.nodes, ref.nodes) << what;
  EXPECT_EQ(fast.iterations, ref.iterations) << what;
  // Bit-identical, not merely close.
  EXPECT_EQ(fast.objective, ref.objective) << what;
  EXPECT_EQ(fast.min_cpu, ref.min_cpu) << what;
  EXPECT_EQ(fast.min_bw_fraction, ref.min_bw_fraction) << what;
}

/// With `min_bw_filter`, one seed also runs with a 50 Mbps bandwidth floor,
/// with and without a 100 Mbps reference capacity: the floor drops the host
/// links with less than 50 Mbps available, so the replay skips positions
/// inside the deletion order.
void expect_balanced_matches_reference(Family family, const char* name,
                                       bool min_bw_filter = false) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    auto inst = datacenter_instance(family, seed);
    for (int m : {16, 64}) {
      for (bool exhaustive : {false, true}) {
        SelectionOptions opt;
        opt.num_nodes = m;
        opt.exhaustive_balanced = exhaustive;
        expect_balanced_equal_reference(
            inst, opt,
            std::string(name) + " seed " + std::to_string(seed) + " m " +
                std::to_string(m) + (exhaustive ? " exhaustive" : " paper"));
      }
    }
  }
  if (!min_bw_filter) return;
  auto inst = datacenter_instance(family, 11);
  std::size_t dropped = 0;
  for (std::size_t l = 0; l < inst.graph->link_count(); ++l)
    if (inst.snap->bw(static_cast<topo::LinkId>(l)) < 50e6) ++dropped;
  ASSERT_GT(dropped, 0u) << name;
  for (double reference_bw : {0.0, topo::k100Mbps}) {
    for (int m : {16, 64}) {
      for (bool exhaustive : {false, true}) {
        SelectionOptions opt;
        opt.num_nodes = m;
        opt.min_bw_bps = 50e6;
        opt.reference_bw = reference_bw;
        opt.exhaustive_balanced = exhaustive;
        expect_balanced_equal_reference(
            inst, opt,
            std::string(name) + " seed 11 min_bw 50e6 reference_bw " +
                std::to_string(reference_bw) + " m " + std::to_string(m) +
                (exhaustive ? " exhaustive" : " paper"));
      }
    }
  }
}

TEST(DatacenterGolden, TwoLevelFatTreeBalancedMatchesReferenceLoop) {
  expect_balanced_matches_reference(Family::FatTree2, "fat_tree");
}

TEST(DatacenterGolden, ThreeLevelFatTreeBalancedMatchesReferenceLoop) {
  expect_balanced_matches_reference(Family::FatTree3, "fat_tree_3l",
                                    /*min_bw_filter=*/true);
}

TEST(DatacenterGolden, CampusWanBalancedMatchesReferenceLoop) {
  expect_balanced_matches_reference(Family::CampusWan, "campus_wan");
}

TEST(DatacenterGolden, RandomCoreEdgeBalancedMatchesReferenceLoop) {
  expect_balanced_matches_reference(Family::CoreEdge, "random_core_edge",
                                    /*min_bw_filter=*/true);
}

TEST(GoldenEquivalence, BalancedBreaksRoundedReferenceTiesById) {
  // Two links whose distinct bandwidths round to one bw / reference_bw, the
  // faster with the lower id: Fig. 2's (bw, id) order deletes it second,
  // Fig. 3's (fraction, id) order first. Deleted first, it cuts off switch
  // t with hosts t0 and t1, which beats the whole graph; deleting the
  // slower link first only isolates host u, and the paper-exact sweep
  // stops there.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double slow = std::nextafter(std::nextafter(30e6, kInf), kInf);
  const double fast = std::nextafter(slow, kInf);
  ASSERT_LT(slow, fast);
  ASSERT_EQ(slow / topo::k100Mbps, fast / topo::k100Mbps);
  Instance inst;
  inst.graph = std::make_unique<topo::TopologyGraph>();
  auto& g = *inst.graph;
  const topo::NodeId s = g.add_network("s");
  const topo::NodeId t = g.add_network("t");
  const topo::LinkId trunk = g.add_link(s, t, topo::k100Mbps);
  const topo::LinkId to_u = g.add_link(s, g.add_compute("u"), topo::k100Mbps);
  for (const char* h : {"t0", "t1"})
    g.add_link(t, g.add_compute(h), topo::k100Mbps);
  for (const char* h : {"s0", "s1"})
    g.add_link(s, g.add_compute(h), topo::k100Mbps);
  g.validate();
  inst.snap = std::make_unique<remos::NetworkSnapshot>(g);
  inst.snap->set_bw(trunk, fast);
  inst.snap->set_bw(to_u, slow);
  ASSERT_LT(trunk, to_u);

  SelectionContext ctx(*inst.snap);
  const std::vector<topo::LinkId> by_bw = ctx.links_by_bw();
  ASSERT_EQ(by_bw[0], to_u);
  ASSERT_EQ(by_bw[1], trunk);
  for (bool exhaustive : {false, true}) {
    SelectionOptions opt;
    opt.num_nodes = 2;
    opt.reference_bw = topo::k100Mbps;
    opt.exhaustive_balanced = exhaustive;
    const std::string what = exhaustive ? "exhaustive" : "paper";
    expect_balanced_equal_reference(inst, opt, what);
    // A second query on a context whose Fig. 2 order is built: the same
    // result, and that order is left as it was.
    const auto warm = select_balanced(ctx, opt);
    const auto ref = detail::reference_select_balanced(*inst.snap, opt);
    EXPECT_EQ(warm.nodes, ref.nodes) << what;
    EXPECT_EQ(warm.iterations, ref.iterations) << what;
    EXPECT_EQ(warm.objective, ref.objective) << what;
    EXPECT_EQ(ctx.links_by_bw(), by_bw) << what;
  }
  // The sweep that deletes the trunk first settles on t0 and t1.
  SelectionOptions opt;
  opt.num_nodes = 2;
  opt.reference_bw = topo::k100Mbps;
  const auto paper = select_balanced(ctx, opt);
  EXPECT_EQ(paper.nodes, (std::vector<topo::NodeId>{g.find_node("t0").value(),
                                                    g.find_node("t1").value()}));
  EXPECT_EQ(paper.iterations, 2);
  EXPECT_EQ(paper.objective, 1.0);
}

TEST(EpochInvalidation, MutationsAreObservedThroughTheContext) {
  auto inst = random_instance(42);
  SelectionOptions opt;
  opt.num_nodes = 4;
  SelectionContext ctx(*inst.snap);

  auto before = select_max_bandwidth(ctx, opt);
  ASSERT_TRUE(before.feasible);
  EXPECT_TRUE(ctx.current());

  // Degrade every link touched by the previous winner's component; the
  // context must notice the snapshot moved on and recompute.
  const auto e0 = inst.snap->epoch();
  for (std::size_t l = 0; l < inst.graph->link_count(); ++l) {
    auto id = static_cast<topo::LinkId>(l);
    inst.snap->set_bw(id, inst.snap->bw(id) * 0.5);
  }
  EXPECT_GT(inst.snap->epoch(), e0);
  EXPECT_FALSE(ctx.current());

  auto after = select_max_bandwidth(ctx, opt);
  expect_same_result(
      after, detail::reference_select_max_bandwidth(*inst.snap, opt),
      "post-mutation");
  EXPECT_TRUE(ctx.current());

  // Unrelated mutation kinds bump the epoch too.
  inst.snap->set_cpu(inst.graph->compute_nodes()[0], 0.123);
  EXPECT_FALSE(ctx.current());
  auto again = select_balanced(ctx, opt);
  expect_same_result(again,
                     detail::reference_select_balanced(*inst.snap, opt),
                     "post-cpu-mutation");
}

TEST(SingleNodeConvention, EvaluateSetReportsNicAvailability) {
  topo::TopologyGraph g;
  auto sw = g.add_network("sw");
  auto a = g.add_compute("a");
  auto b = g.add_compute("b");
  auto la = g.add_link(sw, a, topo::k100Mbps);
  g.add_link(sw, b, topo::k100Mbps);
  remos::NetworkSnapshot snap(g);
  snap.set_bw(la, 40e6);

  SetEvaluation ev = evaluate_set(snap, {a});
  EXPECT_TRUE(ev.connected);
  EXPECT_TRUE(std::isfinite(ev.min_pair_bw));
  EXPECT_DOUBLE_EQ(ev.min_pair_bw, 40e6);
  EXPECT_DOUBLE_EQ(ev.min_pair_bw_fraction, 0.4);
  EXPECT_TRUE(std::isfinite(ev.balanced));

  // The historical reference keeps +inf (documented divergence).
  auto ref = detail::reference_evaluate_set(snap, {a});
  EXPECT_TRUE(std::isinf(ref.min_pair_bw));

  // An isolated compute node reports zero NIC availability.
  topo::TopologyGraph g2;
  auto lone = g2.add_compute("lone");
  remos::NetworkSnapshot snap2(g2);
  SetEvaluation ev2 = evaluate_set(snap2, {lone});
  EXPECT_DOUBLE_EQ(ev2.min_pair_bw, 0.0);
  EXPECT_DOUBLE_EQ(ev2.min_pair_bw_fraction, 0.0);
}

TEST(ContextCaching, RepeatedQueriesReuseState) {
  auto inst = random_instance(7);
  SelectionOptions opt;
  opt.num_nodes = 3;
  SelectionContext ctx(*inst.snap);
  auto first = select_balanced(ctx, opt);
  for (int i = 0; i < 5; ++i) {
    auto r = select_balanced(ctx, opt);
    EXPECT_EQ(r.nodes, first.nodes);
    EXPECT_DOUBLE_EQ(r.objective, first.objective);
  }
  EXPECT_TRUE(ctx.current());
  EXPECT_EQ(ctx.epoch(), inst.snap->epoch());
}

}  // namespace
}  // namespace netsel::select
