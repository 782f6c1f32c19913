// Tests for the flat-arena graph view and the batched multi-source
// bottleneck kernel (topo/flat_graph.hpp).
//
// The batched kernel's contract is *bit-identity* to the scalar
// bottleneck_row — every field, including the BFS tree links and the FIFO
// discovery order the SelectionContext delta-repair path replays — with a
// transparent scalar fallback for sources whose discovery order the
// word-parallel sweep cannot reproduce. The fuzz oracle therefore compares
// whole rows across every synthetic family, on fresh and weight-patched
// arenas, and through SelectionContext::warm_rows at several thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "remos/snapshot.hpp"
#include "select/context.hpp"
#include "topo/connectivity.hpp"
#include "topo/flat_graph.hpp"
#include "topo/synthetic.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace netsel::topo {
namespace {

struct Instance {
  std::string what;
  std::unique_ptr<TopologyGraph> graph;
  std::unique_ptr<remos::NetworkSnapshot> snap;
};

/// One instance per generator family, with seeded loads so the two weight
/// arrays are heterogeneous.
std::vector<Instance> instances(std::uint64_t seed) {
  std::vector<Instance> out;
  {
    Instance inst;
    inst.what = "fat_tree seed " + std::to_string(seed);
    auto ft = fat_tree_for_hosts(48, 8, 2.0, seed);
    ft.cpu_jitter = 0.2;
    inst.graph = std::make_unique<TopologyGraph>(fat_tree(ft));
    out.push_back(std::move(inst));
  }
  {
    Instance inst;
    inst.what = "three_level_fat_tree seed " + std::to_string(seed);
    ThreeLevelFatTreeOptions tl;
    tl.pods = 3;
    tl.edge_per_pod = 3;
    tl.hosts_per_edge = 4;
    tl.agg_per_pod = 2;
    tl.seed = seed;
    inst.graph = std::make_unique<TopologyGraph>(three_level_fat_tree(tl));
    out.push_back(std::move(inst));
  }
  {
    Instance inst;
    inst.what = "campus_wan seed " + std::to_string(seed);
    CampusWanOptions cw;
    cw.campuses = 3;
    cw.buildings_per_campus = 2;
    cw.hosts_per_building = 4;
    cw.seed = seed;
    inst.graph = std::make_unique<TopologyGraph>(campus_wan(cw));
    out.push_back(std::move(inst));
  }
  {
    Instance inst;
    inst.what = "random_core_edge seed " + std::to_string(seed);
    RandomCoreEdgeOptions ce;
    ce.core_switches = 5;
    ce.edge_switches = 9;
    ce.hosts = 40;
    ce.seed = seed;
    inst.graph = std::make_unique<TopologyGraph>(random_core_edge(ce));
    out.push_back(std::move(inst));
  }
  for (auto& inst : out) {
    inst.snap = std::make_unique<remos::NetworkSnapshot>(*inst.graph);
    remos::apply_synthetic_load(*inst.snap, seed * 131 + 17);
  }
  return out;
}

std::vector<double> bw_of(const remos::NetworkSnapshot& snap) {
  std::vector<double> bw(snap.graph().link_count());
  for (std::size_t l = 0; l < bw.size(); ++l)
    bw[l] = snap.bw(static_cast<LinkId>(l));
  return bw;
}

std::vector<double> bwfactor_of(const remos::NetworkSnapshot& snap) {
  std::vector<double> f(snap.graph().link_count());
  for (std::size_t l = 0; l < f.size(); ++l)
    f[l] = snap.bwfactor(static_cast<LinkId>(l));
  return f;
}

void expect_rows_identical(const BottleneckRow& got, const BottleneckRow& want,
                           const std::string& what) {
  EXPECT_EQ(got.bottleneck, want.bottleneck) << what;
  EXPECT_EQ(got.bottleneck2, want.bottleneck2) << what;
  EXPECT_EQ(got.latency, want.latency) << what;
  EXPECT_EQ(got.reached, want.reached) << what;
  EXPECT_EQ(got.tree_link, want.tree_link) << what;
  EXPECT_EQ(got.order, want.order) << what;
}

TEST(FlatGraph, SectionsMatchCsrAndGraph) {
  for (const auto& inst : instances(1)) {
    const auto adj = CsrAdjacency::build(*inst.graph);
    const auto bw = bw_of(*inst.snap);
    const auto f = bwfactor_of(*inst.snap);
    const FlatGraph g = FlatGraph::build(adj, bw, f);
    ASSERT_EQ(g.node_count(), adj.node_count()) << inst.what;
    ASSERT_EQ(g.link_count(), adj.link_count()) << inst.what;
    EXPECT_GT(g.arena_bytes(), 0u) << inst.what;
    EXPECT_TRUE(std::equal(g.row_start().begin(), g.row_start().end(),
                           adj.row_start.begin(), adj.row_start.end()))
        << inst.what;
    EXPECT_TRUE(std::equal(g.neighbor().begin(), g.neighbor().end(),
                           adj.neighbor.begin(), adj.neighbor.end()))
        << inst.what;
    EXPECT_TRUE(std::equal(g.via().begin(), g.via().end(), adj.via.begin(),
                           adj.via.end()))
        << inst.what;
    EXPECT_TRUE(std::equal(g.link_latency().begin(), g.link_latency().end(),
                           adj.link_latency.begin(), adj.link_latency.end()))
        << inst.what;
    EXPECT_TRUE(std::equal(g.is_compute().begin(), g.is_compute().end(),
                           adj.is_compute.begin(), adj.is_compute.end()))
        << inst.what;
    EXPECT_TRUE(std::equal(g.link_bw().begin(), g.link_bw().end(), bw.begin(),
                           bw.end()))
        << inst.what;
    EXPECT_TRUE(std::equal(g.link_bwfactor().begin(), g.link_bwfactor().end(),
                           f.begin(), f.end()))
        << inst.what;
  }
}

TEST(FlatGraph, WeightPatchInPlace) {
  const auto inst = std::move(instances(2)[0]);
  const auto adj = CsrAdjacency::build(*inst.graph);
  auto bw = bw_of(*inst.snap);
  auto f = bwfactor_of(*inst.snap);
  FlatGraph g = FlatGraph::build(adj, bw, f);
  const auto l = static_cast<LinkId>(3);
  g.set_link_bw(l, 12345.0);
  g.set_link_bwfactor(l, 0.125);
  EXPECT_EQ(g.link_bw()[3], 12345.0);
  EXPECT_EQ(g.link_bwfactor()[3], 0.125);
  // Structure untouched.
  EXPECT_TRUE(std::equal(g.neighbor().begin(), g.neighbor().end(),
                         adj.neighbor.begin(), adj.neighbor.end()));
}

TEST(FlatGraph, ScalarKernelMatchesCsrKernel) {
  for (const auto& inst : instances(3)) {
    const auto adj = CsrAdjacency::build(*inst.graph);
    const auto bw = bw_of(*inst.snap);
    const auto f = bwfactor_of(*inst.snap);
    const FlatGraph g = FlatGraph::build(adj, bw, f);
    for (std::size_t n = 0; n < g.node_count(); ++n) {
      const auto src = static_cast<NodeId>(n);
      expect_rows_identical(bottleneck_row(g, src),
                            bottleneck_row(adj, src, bw, f),
                            inst.what + " src " + std::to_string(n));
    }
  }
}

TEST(FlatGraph, BatchedMatchesScalarFuzz) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (const auto& inst : instances(seed)) {
      const auto adj = CsrAdjacency::build(*inst.graph);
      const auto bw = bw_of(*inst.snap);
      const auto f = bwfactor_of(*inst.snap);
      const FlatGraph g = FlatGraph::build(adj, bw, f);
      util::Rng rng(seed * 977 + 5);
      const auto n = static_cast<std::int64_t>(g.node_count());
      // Random batch widths, including the full 64 and width 1; sources mix
      // hosts and switches and may repeat (duplicates must not interfere).
      for (int round = 0; round < 6; ++round) {
        const std::size_t w = static_cast<std::size_t>(
            round == 0 ? 64 : round == 1 ? 1 : rng.uniform_int(2, 64));
        std::vector<NodeId> sources;
        sources.reserve(w);
        for (std::size_t i = 0; i < w; ++i)
          sources.push_back(
              static_cast<NodeId>(rng.uniform_int(0, n - 1)));
        std::vector<BottleneckRow> rows(w);
        BatchStats st;
        batched_bottleneck_rows(g, sources, rows, &st);
        EXPECT_EQ(st.batched_rows + st.scalar_fallback_rows, w)
            << inst.what << " round " << round;
        for (std::size_t i = 0; i < w; ++i)
          expect_rows_identical(
              rows[i], bottleneck_row(adj, sources[i], bw, f),
              inst.what + " round " + std::to_string(round) + " lane " +
                  std::to_string(i));
      }
    }
  }
}

TEST(FlatGraph, BatchedMatchesScalarAfterWeightPatches) {
  for (const auto& inst : instances(5)) {
    const auto adj = CsrAdjacency::build(*inst.graph);
    auto bw = bw_of(*inst.snap);
    auto f = bwfactor_of(*inst.snap);
    FlatGraph g = FlatGraph::build(adj, bw, f);
    // Patch a third of the links in place, mirroring the delta path, and
    // keep the reference arrays in sync.
    util::Rng rng(404);
    for (std::size_t l = 0; l < bw.size(); l += 3) {
      const double nb = bw[l] * rng.uniform(0.25, 1.5);
      const double nf = f[l] * 0.5;
      bw[l] = nb;
      f[l] = nf;
      g.set_link_bw(static_cast<LinkId>(l), nb);
      g.set_link_bwfactor(static_cast<LinkId>(l), nf);
    }
    std::vector<NodeId> sources;
    for (std::size_t i = 0; i < g.node_count(); i += 2)
      sources.push_back(static_cast<NodeId>(i));
    if (sources.size() > 64) sources.resize(64);
    std::vector<BottleneckRow> rows(sources.size());
    batched_bottleneck_rows(g, sources, rows);
    for (std::size_t i = 0; i < sources.size(); ++i)
      expect_rows_identical(rows[i],
                            bottleneck_row(adj, sources[i], bw, f),
                            inst.what + " patched lane " + std::to_string(i));
  }
}

TEST(FlatGraph, BatchedArgumentChecks) {
  const auto inst = std::move(instances(6)[0]);
  const auto adj = CsrAdjacency::build(*inst.graph);
  const auto bw = bw_of(*inst.snap);
  const auto f = bwfactor_of(*inst.snap);
  const FlatGraph g = FlatGraph::build(adj, bw, f);
  std::vector<NodeId> too_many(65, 0);
  std::vector<BottleneckRow> out65(65);
  EXPECT_THROW(batched_bottleneck_rows(g, too_many, out65),
               std::invalid_argument);
  std::vector<NodeId> two(2, 0);
  std::vector<BottleneckRow> out1(1);
  EXPECT_THROW(batched_bottleneck_rows(g, two, out1), std::invalid_argument);
  std::vector<NodeId> bad{static_cast<NodeId>(g.node_count())};
  std::vector<BottleneckRow> outb(1);
  EXPECT_THROW(batched_bottleneck_rows(g, bad, outb), std::invalid_argument);
  std::vector<NodeId> none;
  std::vector<BottleneckRow> outn;
  batched_bottleneck_rows(g, none, outn);  // width 0 is a no-op
}

/// warm_rows end-to-end: the context's compact rows, built over a
/// delta-patched arena (so the arena weight patches are exercised), must
/// reproduce the TopologyGraph reference kernel at every node and every
/// thread count.
TEST(FlatGraph, ContextWarmRowsBitIdenticalAcrossThreadCountsAndDeltas) {
  for (const auto& inst : instances(7)) {
    auto& snap = *inst.snap;
    select::SelectionContext ctx(snap);
    // Touch the caches, then mutate the snapshot so warm_rows runs on a
    // delta-patched arena rather than a fresh build.
    (void)ctx.flat();
    util::Rng rng(11);
    for (std::size_t l = 0; l < snap.graph().link_count(); l += 4)
      snap.set_bw(static_cast<LinkId>(l),
                  snap.bw(static_cast<LinkId>(l)) * rng.uniform(0.3, 1.2));
    std::vector<NodeId> sources;
    for (std::size_t i = 0; i < snap.graph().node_count(); ++i)
      sources.push_back(static_cast<NodeId>(i));
    const auto bw = bw_of(snap);
    const auto f = bwfactor_of(snap);
    for (int workers : {0, 2, 4}) {
      select::SelectionContext warm_ctx(snap);
      util::ThreadPool pool(workers);
      warm_ctx.warm_rows(pool, sources);
      EXPECT_GT(warm_ctx.arena_bytes(), 0u) << inst.what;
      for (NodeId src : sources) {
        const auto want = bottleneck_row(snap.graph(), src, bw, f);
        const auto row = warm_ctx.pair_row(src);
        const std::string what = inst.what + " workers " +
                                 std::to_string(workers) + " src " +
                                 std::to_string(src);
        for (std::size_t v = 0; v < want.reached.size(); ++v) {
          const auto got = row.at(static_cast<NodeId>(v));
          const std::string at = what + " node " + std::to_string(v);
          ASSERT_EQ(got.reached, want.reached[v] != 0) << at;
          ASSERT_EQ(got.bottleneck, want.bottleneck[v]) << at;
          ASSERT_EQ(got.bottleneck2, want.bottleneck2[v]) << at;
          ASSERT_EQ(got.latency, want.latency[v]) << at;
        }
      }
    }
  }
}

}  // namespace
}  // namespace netsel::topo
