// The incremental-vs-rebuilt oracle for the typed-delta snapshot path:
// a long-lived SelectionContext that consumes remos::Delta journals with
// fine-grained invalidation (in-place row value repair, per-row drop on
// link removal) must stay *bit-identical* to a context rebuilt from scratch
// after arbitrary delta sequences — orders, component decompositions, the
// half-edge neighbour array, bottleneck rows (built serially and by
// warm_rows on a pool), selections under every criterion, and set
// evaluations; every checked row is also compared, node by node, with
// topo::bottleneck_row over the TopologyGraph. Also covers the journal
// mechanics (typed emission, bounded trimming, overflow fallback), the
// graph's CSR patches against a scan of its links, no row rebuild under
// value-only deltas, one test per compact-row delta rule, the source
// range check of pair_row and warm_rows, and the bounded-migration
// reselect layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/reselect.hpp"
#include "obs/metrics.hpp"
#include "select/algorithms.hpp"
#include "select/context.hpp"
#include "select/objective.hpp"
#include "topo/connectivity.hpp"
#include "topo/generators.hpp"
#include "topo/synthetic.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace netsel {
namespace {

struct Instance {
  std::unique_ptr<topo::TopologyGraph> graph;
  std::unique_ptr<remos::NetworkSnapshot> snap;
};

/// One small instance per synthetic family, loads applied.
Instance family_instance(int family, std::uint64_t seed) {
  Instance inst;
  inst.graph = std::make_unique<topo::TopologyGraph>([&] {
    switch (family % 3) {
      case 0: {
        topo::FatTreeOptions o;
        o.edge_switches = 4;
        o.hosts_per_edge = 5;
        o.core_switches = 2;
        o.seed = seed + 1;
        return topo::fat_tree(o);
      }
      case 1: {
        topo::CampusWanOptions o;
        o.campuses = 3;
        o.buildings_per_campus = 2;
        o.hosts_per_building = 3;
        o.seed = seed + 1;
        return topo::campus_wan(o);
      }
      default: {
        topo::RandomCoreEdgeOptions o;
        o.core_switches = 3;
        o.edge_switches = 5;
        o.hosts = 18;
        o.seed = seed + 1;
        return topo::random_core_edge(o);
      }
    }
  }());
  inst.snap = std::make_unique<remos::NetworkSnapshot>(*inst.graph);
  remos::apply_synthetic_load(*inst.snap, seed * 31 + 7);
  return inst;
}

std::vector<topo::LinkId> present_links(const topo::TopologyGraph& g) {
  std::vector<topo::LinkId> out;
  for (std::size_t l = 0; l < g.link_count(); ++l)
    if (!g.link_removed(static_cast<topo::LinkId>(l)))
      out.push_back(static_cast<topo::LinkId>(l));
  return out;
}

std::vector<topo::NodeId> present_computes(const topo::TopologyGraph& g) {
  std::vector<topo::NodeId> out;
  for (std::size_t i = 0; i < g.node_count(); ++i)
    if (g.is_compute(static_cast<topo::NodeId>(i)))
      out.push_back(static_cast<topo::NodeId>(i));
  return out;
}

/// One random mutation of the graph+snapshot pair, spanning every delta
/// kind; notifications follow mutations in order, as the contract requires.
void random_mutation(util::Rng& rng, topo::TopologyGraph& g,
                     remos::NetworkSnapshot& snap, int& name_counter) {
  const double roll = rng.uniform(0.0, 1.0);
  if (roll < 0.50) {  // link bandwidth
    auto links = present_links(g);
    if (links.empty()) return;
    auto l = links[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(links.size()) - 1))];
    snap.set_bw(l, rng.uniform(0.05, 1.0) * snap.maxbw(l));
  } else if (roll < 0.65) {  // node load / memory
    auto hosts = present_computes(g);
    if (hosts.empty()) return;
    auto n = hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
    if (rng.bernoulli(0.5))
      snap.set_loadavg(n, rng.uniform(0.0, 4.0));
    else
      snap.set_free_memory(n, rng.uniform(0.0, 2e9));
  } else if (roll < 0.75) {  // remove a link
    auto links = present_links(g);
    if (links.size() <= 6) return;  // keep the graph interesting
    auto l = links[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(links.size()) - 1))];
    g.remove_link(l);
    snap.notify_link_removed(l);
  } else if (roll < 0.88) {  // add a link
    std::vector<topo::NodeId> nodes;
    for (std::size_t i = 0; i < g.node_count(); ++i)
      if (!g.node_removed(static_cast<topo::NodeId>(i)))
        nodes.push_back(static_cast<topo::NodeId>(i));
    if (nodes.size() < 2) return;
    auto a = nodes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    auto b = nodes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    if (a == b) return;
    try {
      auto id = g.add_link(a, b, rng.uniform(10.0, 100.0) * topo::kMbps);
      snap.notify_link_added(id);
    } catch (const std::invalid_argument&) {
      // duplicate/rejected link: mutation skipped, graph unchanged
    }
  } else if (roll < 0.95) {  // add a compute host
    auto id = g.add_compute("churn" + std::to_string(name_counter++));
    snap.notify_node_added(id);
  } else {  // isolate and remove a compute host
    auto hosts = present_computes(g);
    if (hosts.size() <= 4) return;
    auto n = hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
    const auto span = g.links_of(n);
        const std::vector<topo::LinkId> incident(span.begin(), span.end());
    for (topo::LinkId l : incident) {
      g.remove_link(l);
      snap.notify_link_removed(l);
    }
    g.remove_node(n);
    snap.notify_node_removed(n);
  }
}

using PairRow = select::SelectionContext::PairRow;
using PairValue = select::SelectionContext::PairValue;

bool same_value(const PairValue& a, const PairValue& b) {
  return a.reached == b.reached && a.bottleneck == b.bottleneck &&
         a.bottleneck2 == b.bottleneck2 && a.latency == b.latency;
}

std::string describe(const PairValue& p) {
  return "{reached " + std::to_string(p.reached) + ", bw " +
         std::to_string(p.bottleneck) + ", bw2 " +
         std::to_string(p.bottleneck2) + ", lat " +
         std::to_string(p.latency) + "}";
}

/// Every node of two cached rows, bit for bit (first mismatch reported).
void expect_rows_equal(const PairRow& a, const PairRow& b, std::size_t nodes,
                       const std::string& what) {
  for (std::size_t v = 0; v < nodes; ++v) {
    const auto n = static_cast<topo::NodeId>(v);
    if (!same_value(a.at(n), b.at(n))) {
      ADD_FAILURE() << what << " node " << v << ": " << describe(a.at(n))
                    << " vs " << describe(b.at(n));
      return;
    }
  }
}

/// Every node of a cached row against the reference kernel,
/// topo::bottleneck_row over the TopologyGraph with the snapshot's current
/// weights — an oracle that shares no code with the context's rows.
void expect_row_matches_kernel(const PairRow& row,
                               const remos::NetworkSnapshot& snap,
                               topo::NodeId src, const std::string& what) {
  const auto& g = snap.graph();
  std::vector<double> bw(g.link_count());
  std::vector<double> f(g.link_count());
  for (std::size_t l = 0; l < bw.size(); ++l) {
    bw[l] = snap.bw(static_cast<topo::LinkId>(l));
    f[l] = snap.bwfactor(static_cast<topo::LinkId>(l));
  }
  const topo::BottleneckRow want = topo::bottleneck_row(g, src, bw, f);
  for (std::size_t v = 0; v < g.node_count(); ++v) {
    const PairValue w{want.reached[v] != 0, want.bottleneck[v],
                      want.bottleneck2[v], want.latency[v]};
    const PairValue got = row.at(static_cast<topo::NodeId>(v));
    if (!same_value(got, w)) {
      ADD_FAILURE() << what << " src " << src << " node " << v << ": "
                    << describe(got) << " vs kernel " << describe(w);
      return;
    }
  }
}

/// Turns the obs registry on (zeroed) for one test, so the select.ctx.*
/// counters can be read, and restores the disabled default afterwards.
struct ScopedCounters {
  ScopedCounters() {
    obs::set_enabled(true);
    obs::Registry::global().reset();
  }
  ~ScopedCounters() {
    obs::Registry::global().reset();
    obs::set_enabled(false);
  }
  ScopedCounters(const ScopedCounters&) = delete;
  ScopedCounters& operator=(const ScopedCounters&) = delete;
  std::uint64_t operator()(const char* name) const {
    return obs::Registry::global().counter(name).value();
  }
};

constexpr select::Criterion kCriteria[] = {select::Criterion::MaxCompute,
                                           select::Criterion::MaxBandwidth,
                                           select::Criterion::Balanced};

/// The oracle: every observable of the incrementally maintained context is
/// bit-identical to a context built from scratch on the current snapshot.
void expect_matches_rebuild(const select::SelectionContext& inc,
                            const remos::NetworkSnapshot& snap,
                            const std::string& what) {
  select::SelectionContext fresh(snap);
  const auto& g = snap.graph();

  EXPECT_EQ(inc.acyclic(), fresh.acyclic()) << what;
  EXPECT_EQ(inc.link_bw(), fresh.link_bw()) << what;
  EXPECT_EQ(inc.link_bwfactor(), fresh.link_bwfactor()) << what;
  EXPECT_EQ(inc.links_by_bw(), fresh.links_by_bw()) << what;
  select::SelectionOptions fraction_opt;
  EXPECT_EQ(inc.links_by_fraction(fraction_opt),
            fresh.links_by_fraction(fraction_opt))
      << what;

  const std::vector<topo::NodeId>& nbr = inc.flat();
  EXPECT_EQ(nbr, fresh.flat()) << what;
  const auto adj = g.adjacency();
  ASSERT_EQ(nbr.size(), adj.link.size()) << what;
  for (std::size_t u = 0; u + 1 < adj.start.size(); ++u)
    for (auto e = adj.start[u]; e < adj.start[u + 1]; ++e) {
      const auto ie = static_cast<std::size_t>(e);
      const topo::Link& lk = g.links()[static_cast<std::size_t>(adj.link[ie])];
      ASSERT_EQ(nbr[ie], lk.other(static_cast<topo::NodeId>(u)))
          << what << " half-edge " << ie;
    }

  const topo::Components& xa = inc.base_components();
  const topo::Components& xb = fresh.base_components();
  EXPECT_EQ(xa.comp_of, xb.comp_of) << what;
  EXPECT_EQ(xa.count, xb.count) << what;
  EXPECT_EQ(xa.compute_count, xb.compute_count) << what;
  EXPECT_EQ(xa.node_count, xb.node_count) << what;

  auto hosts = present_computes(g);
  for (std::size_t i = 0; i < hosts.size() && i < 12; ++i) {
    const std::string tag = what + " row " + std::to_string(hosts[i]);
    const PairRow row = inc.pair_row(hosts[i]);
    expect_rows_equal(row, fresh.pair_row(hosts[i]), g.node_count(), tag);
    expect_row_matches_kernel(row, snap, hosts[i], tag);
  }

  for (select::Criterion c : kCriteria) {
    for (bool pruned : {true, false}) {
      select::SelectionOptions opt;
      opt.num_nodes = 4;
      opt.prune_dominated = pruned;
      auto a = select::select_nodes(c, inc, opt);
      auto b = select::select_nodes(c, fresh, opt);
      const std::string tag = what + " criterion " +
                              select::criterion_name(c) +
                              (pruned ? " pruned" : " unpruned");
      ASSERT_EQ(a.feasible, b.feasible) << tag;
      EXPECT_EQ(a.nodes, b.nodes) << tag;
      EXPECT_EQ(a.iterations, b.iterations) << tag;
      if (a.feasible) {
        EXPECT_EQ(a.min_cpu, b.min_cpu) << tag;
        EXPECT_EQ(a.min_bw_fraction, b.min_bw_fraction) << tag;
        EXPECT_EQ(a.objective, b.objective) << tag;
        auto ea = evaluate_set(inc, a.nodes, opt);
        auto eb = evaluate_set(fresh, b.nodes, opt);
        EXPECT_EQ(ea.connected, eb.connected) << tag;
        EXPECT_EQ(ea.min_cpu, eb.min_cpu) << tag;
        EXPECT_EQ(ea.min_pair_bw, eb.min_pair_bw) << tag;
        EXPECT_EQ(ea.min_pair_bw_fraction, eb.min_pair_bw_fraction) << tag;
        EXPECT_EQ(ea.balanced, eb.balanced) << tag;
        EXPECT_EQ(ea.max_pair_latency, eb.max_pair_latency) << tag;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Journal mechanics
// ---------------------------------------------------------------------------

TEST(DeltaJournal, MutationsEmitTypedDeltas) {
  topo::TopologyGraph g;
  auto sw = g.add_network("sw");
  auto a = g.add_compute("a");
  auto b = g.add_compute("b");
  auto la = g.add_link(sw, a, topo::k100Mbps);
  auto lb = g.add_link(sw, b, topo::k100Mbps);
  remos::NetworkSnapshot snap(g);
  const std::uint64_t e0 = snap.epoch();

  snap.set_loadavg(a, 1.0);  // cpu becomes 0.5
  snap.set_free_memory(a, 123.0);
  snap.set_bw(la, 5e6);
  snap.set_bw_dir(lb, true, 7e6);
  EXPECT_EQ(snap.epoch(), e0 + 4);

  std::vector<remos::Delta> out;
  ASSERT_TRUE(snap.deltas_since(e0, out));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].kind, remos::DeltaKind::NodeLoad);
  EXPECT_EQ(out[0].node, a);
  EXPECT_DOUBLE_EQ(out[0].value, 0.5);
  EXPECT_EQ(out[1].kind, remos::DeltaKind::NodeMemory);
  EXPECT_DOUBLE_EQ(out[1].value, 123.0);
  EXPECT_EQ(out[2].kind, remos::DeltaKind::LinkBandwidth);
  EXPECT_EQ(out[2].link, la);
  EXPECT_DOUBLE_EQ(out[2].value, 5e6);
  EXPECT_EQ(out[3].kind, remos::DeltaKind::LinkBandwidth);
  EXPECT_EQ(out[3].link, lb);
  EXPECT_DOUBLE_EQ(out[3].value, 7e6);  // min over the two directions
  EXPECT_FALSE(remos::delta_is_structural(out[0].kind));

  const std::uint64_t e1 = snap.epoch();
  auto c = g.add_compute("c");
  snap.notify_node_added(c);
  auto lc = g.add_link(sw, c, topo::k100Mbps);
  snap.notify_link_added(lc);
  g.remove_link(la);
  snap.notify_link_removed(la);
  out.clear();
  ASSERT_TRUE(snap.deltas_since(e1, out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].kind, remos::DeltaKind::NodeAdded);
  EXPECT_EQ(out[0].node, c);
  EXPECT_EQ(out[1].kind, remos::DeltaKind::LinkAdded);
  EXPECT_EQ(out[1].link, lc);
  EXPECT_EQ(out[2].kind, remos::DeltaKind::LinkRemoved);
  EXPECT_EQ(out[2].link, la);
  for (const auto& d : out) {
    EXPECT_TRUE(remos::delta_is_structural(d.kind));
    EXPECT_NE(remos::delta_kind_name(d.kind), nullptr);
  }
  EXPECT_DOUBLE_EQ(snap.bw(la), 0.0);  // tombstoned link reports zero

  // Since-now is valid and appends nothing; the future throws.
  out.clear();
  EXPECT_TRUE(snap.deltas_since(snap.epoch(), out));
  EXPECT_TRUE(out.empty());
  EXPECT_THROW(snap.deltas_since(snap.epoch() + 1, out),
               std::invalid_argument);
}

TEST(DeltaJournal, BoundedJournalTrimsOldest) {
  topo::TopologyGraph g;
  auto sw = g.add_network("sw");
  auto a = g.add_compute("a");
  auto l = g.add_link(sw, a, topo::k100Mbps);
  remos::NetworkSnapshot snap(g);
  snap.set_delta_journal_capacity(3);
  EXPECT_EQ(snap.delta_journal_capacity(), 3u);

  for (int i = 1; i <= 5; ++i) snap.set_bw(l, 1e6 * i);
  std::vector<remos::Delta> out;
  // The three most recent deltas are retained...
  ASSERT_TRUE(snap.deltas_since(snap.epoch() - 3, out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].value, 3e6);
  EXPECT_DOUBLE_EQ(out[2].value, 5e6);
  // ...anything older has been trimmed.
  out.clear();
  EXPECT_FALSE(snap.deltas_since(snap.epoch() - 4, out));
  EXPECT_TRUE(out.empty());

  // Capacity zero: the epoch still moves, every catch-up is a rebuild.
  snap.set_delta_journal_capacity(0);
  snap.set_bw(l, 9e6);
  EXPECT_FALSE(snap.deltas_since(snap.epoch() - 1, out));
  EXPECT_TRUE(snap.deltas_since(snap.epoch(), out));
}

// ---------------------------------------------------------------------------
// CSR patching
// ---------------------------------------------------------------------------

/// n's live incident links in ascending id, found by scanning every link
/// record: what links_of(n) must return whatever mix of build, patch and
/// tombstone got it there.
std::vector<topo::LinkId> scanned_links_of(const topo::TopologyGraph& g,
                                           topo::NodeId n) {
  std::vector<topo::LinkId> out;
  for (const topo::LinkId l : present_links(g))
    if (g.link(l).a == n || g.link(l).b == n) out.push_back(l);
  return out;
}

void expect_links_match_scan(const topo::TopologyGraph& g,
                             const std::string& what) {
  for (std::size_t n = 0; n < g.node_count(); ++n) {
    const auto id = static_cast<topo::NodeId>(n);
    const auto got = g.links_of(id);
    ASSERT_EQ(std::vector<topo::LinkId>(got.begin(), got.end()),
              scanned_links_of(g, id))
        << what << " node " << n;
  }
  EXPECT_THROW(g.links_of(-1), std::out_of_range) << what;
  EXPECT_THROW(g.links_of(static_cast<topo::NodeId>(g.node_count())),
               std::out_of_range)
      << what;
}

/// The same nodes and links added one by one, never read: a graph still in
/// its build phase.
topo::TopologyGraph unread_copy(const topo::TopologyGraph& src) {
  topo::TopologyGraph g;
  for (std::size_t n = 0; n < src.node_count(); ++n) {
    const topo::Node& node = src.node(static_cast<topo::NodeId>(n));
    if (node.kind == topo::NodeKind::Compute)
      g.add_compute(node.name, node.cpu_capacity);
    else
      g.add_network(node.name);
  }
  for (const topo::Link& l : src.links())
    g.add_link(l.a, l.b, l.capacity_ab, l.capacity_ba);
  return g;
}

TEST(CsrPatching, RandomMutationSequencesMatchRebuild) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    for (const bool built : {true, false}) {
      topo::RandomCoreEdgeOptions o;
      o.core_switches = 3;
      o.edge_switches = 4;
      o.hosts = 12;
      o.seed = seed + 1;
      // The generator validates, which builds the CSR; the unread copy
      // stays in its build phase until its first read.
      topo::TopologyGraph g = built ? topo::random_core_edge(o)
                                    : unread_copy(topo::random_core_edge(o));
      util::Rng rng(seed * 271 + 9);
      int names = 0;
      for (int step = 0; step < 30; ++step) {
        const std::string what = "seed " + std::to_string(seed) +
                                 (built ? " built" : " build phase") +
                                 " step " + std::to_string(step);
        const double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.35) {
          auto links = present_links(g);
          if (links.size() <= 4) continue;
          g.remove_link(links[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(links.size()) - 1))]);
        } else if (roll < 0.70) {
          auto an = static_cast<topo::NodeId>(rng.uniform_int(
              0, static_cast<std::int64_t>(g.node_count()) - 1));
          auto bn = static_cast<topo::NodeId>(rng.uniform_int(
              0, static_cast<std::int64_t>(g.node_count()) - 1));
          if (an == bn || g.node_removed(an) || g.node_removed(bn)) continue;
          g.add_link(an, bn, topo::k100Mbps);
        } else if (roll < 0.9) {
          g.add_compute("p" + std::to_string(names++));
        } else {
          auto hosts = present_computes(g);
          if (hosts.size() <= 4) continue;
          auto n = hosts[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(hosts.size()) - 1))];
          const auto incident = scanned_links_of(g, n);
          // A node with links left cannot go, in either phase; the first
          // removal then ends the build phase (it reads n's degree).
          if (!incident.empty()) {
            EXPECT_THROW(g.remove_node(n), std::invalid_argument) << what;
          }
          for (topo::LinkId l : incident) g.remove_link(l);
          g.remove_node(n);
        }
        // A copy checks the build from the tombstones while g itself is
        // unread; once g is built the copy carries its patched CSR.
        expect_links_match_scan(topo::TopologyGraph(g), what + " (copy)");
      }
      expect_links_match_scan(g, "seed " + std::to_string(seed));
    }
  }
}

// ---------------------------------------------------------------------------
// The incremental-vs-rebuilt oracle
// ---------------------------------------------------------------------------

TEST(IncrementalOracle, FuzzDeltaSequencesBitIdenticalToRebuild) {
  for (int family = 0; family < 3; ++family) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      auto inst = family_instance(family, seed);
      util::Rng rng(seed * 9176 + static_cast<std::uint64_t>(family));
      select::SelectionContext ctx(*inst.snap);
      // Warm every cache first so the deltas exercise repair and patching,
      // not cold builds.
      expect_matches_rebuild(ctx, *inst.snap, "warmup");
      int names = 0;
      for (int step = 0; step < 32; ++step) {
        random_mutation(rng, *inst.graph, *inst.snap, names);
        // Check both single-delta and batched catch-up windows.
        if (step % 4 == 3 || step == 31) {
          expect_matches_rebuild(
              ctx, *inst.snap,
              "family " + std::to_string(family) + " seed " +
                  std::to_string(seed) + " step " + std::to_string(step));
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(IncrementalOracle, JournalOverflowFallsBackToFullRebuild) {
  auto inst = family_instance(0, 11);
  inst.snap->set_delta_journal_capacity(3);
  select::SelectionContext ctx(*inst.snap);
  expect_matches_rebuild(ctx, *inst.snap, "warmup");
  util::Rng rng(77);
  int names = 0;
  // Far more deltas than the journal retains: catch-up must take the
  // drop-everything path and still be correct.
  for (int step = 0; step < 10; ++step)
    random_mutation(rng, *inst.graph, *inst.snap, names);
  expect_matches_rebuild(ctx, *inst.snap, "after overflow");
}

TEST(IncrementalOracle, ValueDeltasKeepRowStorage) {
  ScopedCounters counters;
  topo::TopologyGraph g;
  auto sw = g.add_network("sw");
  std::vector<topo::NodeId> h;
  std::vector<topo::LinkId> hl;
  for (int i = 0; i < 4; ++i) {
    h.push_back(g.add_compute(std::string("h") + std::to_string(i)));
    hl.push_back(g.add_link(sw, h.back(), topo::k100Mbps));
  }
  remos::NetworkSnapshot snap(g);
  select::SelectionContext ctx(snap);
  (void)ctx.pair_row(h[0]);
  const std::uint64_t misses = counters("select.ctx.row_misses");
  EXPECT_EQ(misses, 1u);

  // Node sensor deltas invalidate nothing.
  snap.set_loadavg(h[1], 2.0);
  (void)ctx.pair_row(h[0]);
  EXPECT_EQ(counters("select.ctx.row_misses"), misses);

  // A bandwidth delta is consumed without rebuilding the row: h1 is read
  // through its access link, so the new value shows at once.
  snap.set_bw(hl[1], 40e6);
  const PairRow row = ctx.pair_row(h[0]);
  EXPECT_EQ(counters("select.ctx.row_misses"), misses);
  EXPECT_DOUBLE_EQ(row.at(h[1]).bottleneck, 40e6);
  expect_row_matches_kernel(row, snap, h[0], "post-bw");

  // A host added elsewhere grows no row and reads as unreached.
  auto extra = g.add_compute("extra");
  snap.notify_node_added(extra);
  const PairRow grown = ctx.pair_row(h[0]);
  EXPECT_EQ(counters("select.ctx.row_misses"), misses);
  EXPECT_FALSE(grown.at(extra).reached);
  expect_row_matches_kernel(grown, snap, h[0], "post-add");
}

/// warm_rows end to end: on a context that consumed value and structural
/// deltas after building its caches, the rows built on a pool reproduce the
/// TopologyGraph reference kernel at every node, at every worker count.
TEST(IncrementalOracle, WarmRowsBitIdenticalAcrossThreadCountsAndDeltas) {
  for (int family = 0; family < 3; ++family) {
    for (int workers : {0, 2, 4}) {
      auto inst = family_instance(family, 7);
      select::SelectionContext ctx(*inst.snap);
      (void)ctx.pair_row(present_computes(*inst.graph).front());
      util::Rng rng(11);
      int names = 0;
      for (int step = 0; step < 12; ++step)
        random_mutation(rng, *inst.graph, *inst.snap, names);
      std::vector<topo::NodeId> sources;
      for (std::size_t i = 0; i < inst.graph->node_count(); ++i)
        if (!inst.graph->node_removed(static_cast<topo::NodeId>(i)))
          sources.push_back(static_cast<topo::NodeId>(i));
      util::ThreadPool pool(workers);
      ctx.warm_rows(pool, sources);
      EXPECT_GT(ctx.arena_bytes(), 0u);
      const std::string what = "family " + std::to_string(family) +
                               " workers " + std::to_string(workers);
      for (topo::NodeId src : sources)
        expect_row_matches_kernel(ctx.pair_row(src), *inst.snap, src, what);
    }
  }
}

TEST(IncrementalOracle, WarmedRowsStayConsistentAcrossDeltas) {
  auto inst = family_instance(0, 3);
  util::ThreadPool pool(2);
  select::SelectionContext ctx(*inst.snap);
  ctx.warm_rows(pool, present_computes(*inst.graph));
  auto links = present_links(*inst.graph);
  inst.snap->set_bw(links[1], 0.5 * inst.snap->maxbw(links[1]));
  inst.snap->set_bw(links[3], 0.25 * inst.snap->maxbw(links[3]));
  expect_matches_rebuild(ctx, *inst.snap, "after warm+delta");
}

// ---------------------------------------------------------------------------
// Compact rows: one test per delta rule
// ---------------------------------------------------------------------------

/// 4 edge switches x 5 hosts under 2 core switches: the 6 switches are the
/// stored nodes, the 20 hosts are read through their access links.
Instance compact_fat_tree() {
  Instance inst;
  topo::FatTreeOptions o;
  o.edge_switches = 4;
  o.hosts_per_edge = 5;
  o.core_switches = 2;
  o.seed = 5;
  inst.graph = std::make_unique<topo::TopologyGraph>(topo::fat_tree(o));
  inst.snap = std::make_unique<remos::NetworkSnapshot>(*inst.graph);
  remos::apply_synthetic_load(*inst.snap, 17);
  return inst;
}

/// Every built row of `srcs` against the reference kernel, every node.
void expect_rows_match_kernel(const select::SelectionContext& ctx,
                              const remos::NetworkSnapshot& snap,
                              const std::vector<topo::NodeId>& srcs,
                              const std::string& what) {
  for (topo::NodeId src : srcs)
    expect_row_matches_kernel(ctx.pair_row(src), snap, src, what);
}

TEST(CompactRows, AccessLinkBandwidthRepairsOneRow) {
  ScopedCounters counters;
  auto inst = compact_fat_tree();
  auto& snap = *inst.snap;
  const auto hosts = present_computes(*inst.graph);
  select::SelectionContext ctx(snap);
  for (topo::NodeId h : hosts) (void)ctx.pair_row(h);
  const std::uint64_t misses = counters("select.ctx.row_misses");
  ASSERT_EQ(misses, hosts.size());

  const topo::LinkId access = inst.graph->links_of(hosts[3])[0];
  snap.set_bw(access, 0.3 * snap.maxbw(access));
  (void)ctx.link_bw();  // consume the delta
  EXPECT_EQ(counters("select.ctx.rows.repaired"), 1u);
  expect_rows_match_kernel(ctx, snap, hosts, "after access-link write");
  EXPECT_EQ(counters("select.ctx.row_misses"), misses);  // nothing rebuilt
}

TEST(CompactRows, RemovingAnAccessLinkDropsOnlyThatHostsRow) {
  ScopedCounters counters;
  auto inst = compact_fat_tree();
  auto& g = *inst.graph;
  auto& snap = *inst.snap;
  const auto hosts = present_computes(g);
  select::SelectionContext ctx(snap);
  for (topo::NodeId h : hosts) (void)ctx.pair_row(h);
  const std::uint64_t misses = counters("select.ctx.row_misses");

  const topo::NodeId gone = hosts[7];
  const topo::LinkId access = g.links_of(gone)[0];
  g.remove_link(access);
  snap.notify_link_removed(access);
  (void)ctx.link_bw();
  EXPECT_EQ(counters("select.ctx.rows.invalidated.partial"), 1u);
  EXPECT_EQ(counters("select.ctx.rows.invalidated.full"), 0u);
  for (topo::NodeId h : hosts) {
    if (h == gone) continue;
    const PairRow row = ctx.pair_row(h);
    EXPECT_FALSE(row.at(gone).reached) << h;
    expect_row_matches_kernel(row, snap, h, "after access-link removal");
  }
  EXPECT_EQ(counters("select.ctx.row_misses"), misses);
  // The detached host's own row is rebuilt: it reaches only itself.
  expect_row_matches_kernel(ctx.pair_row(gone), snap, gone, "detached row");
  EXPECT_EQ(counters("select.ctx.row_misses"), misses + 1);
}

TEST(CompactRows, SwitchWhoseDegreeFallsToOneStaysStored) {
  ScopedCounters counters;
  auto inst = compact_fat_tree();
  auto& g = *inst.graph;
  auto& snap = *inst.snap;
  const auto hosts = present_computes(g);
  // Node order: the core switches, then each edge switch and its hosts.
  const topo::NodeId edge = 2;
  ASSERT_FALSE(g.is_compute(edge));
  ASSERT_EQ(g.degree(edge), 7u);
  std::vector<topo::NodeId> srcs = hosts;
  srcs.push_back(edge);
  select::SelectionContext ctx(snap);
  for (topo::NodeId s : srcs) (void)ctx.pair_row(s);

  // Detach the edge switch down to its first link, a core uplink (its
  // uplinks come before its host links).
  const auto span = g.links_of(edge);
  const std::vector<topo::LinkId> incident(span.begin(), span.end());
  for (std::size_t i = 1; i < incident.size(); ++i) {
    g.remove_link(incident[i]);
    snap.notify_link_removed(incident[i]);
  }
  ASSERT_EQ(g.degree(edge), 1u);
  expect_rows_match_kernel(ctx, snap, srcs, "after detaching the switch");

  // Its last link is still a link between two stored nodes: a write on it
  // repairs every row whose tree reaches the switch through it, not just
  // the switch's own row.
  const topo::LinkId last = incident.front();
  ASSERT_FALSE(g.is_compute(g.other_end(last, edge)));
  std::uint64_t reaching = 0;
  {
    std::vector<double> bw(g.link_count(), 1.0);
    for (topo::NodeId s : srcs)
      if (topo::bottleneck_row(g, s, bw).reached[static_cast<std::size_t>(
              edge)])
        ++reaching;
  }
  const std::uint64_t repaired = counters("select.ctx.rows.repaired");
  snap.set_bw(last, 0.2 * snap.maxbw(last));
  (void)ctx.link_bw();
  EXPECT_EQ(counters("select.ctx.rows.repaired") - repaired, reaching);
  EXPECT_GT(reaching, 1u);
  expect_rows_match_kernel(ctx, snap, srcs, "after a write on its last link");
}

TEST(CompactRows, LinkAddedDropsEveryRowAndRelayouts) {
  ScopedCounters counters;
  auto inst = compact_fat_tree();
  auto& g = *inst.graph;
  auto& snap = *inst.snap;
  const auto hosts = present_computes(g);
  select::SelectionContext ctx(snap);
  for (topo::NodeId h : hosts) (void)ctx.pair_row(h);

  // Give a host a second link, to another edge switch: it becomes a node
  // with two links, stored after the relayout.
  const topo::NodeId h = hosts[0];
  const topo::NodeId other_edge = 2 + 6;  // the second edge switch
  ASSERT_FALSE(g.is_compute(other_edge));
  const topo::LinkId extra = g.add_link(h, other_edge, topo::k100Mbps);
  snap.notify_link_added(extra);
  snap.set_bw(extra, 0.4 * snap.maxbw(extra));
  (void)ctx.link_bw();
  EXPECT_EQ(counters("select.ctx.rows.invalidated.full"), hosts.size());
  std::vector<topo::NodeId> srcs = hosts;
  srcs.push_back(other_edge);
  expect_rows_match_kernel(ctx, snap, srcs, "after the relayout");
}

TEST(CompactRows, OutOfRangeSourcesAreRejectedBeforeAnyRow) {
  ScopedCounters counters;
  auto inst = compact_fat_tree();
  const auto n = static_cast<topo::NodeId>(inst.graph->node_count());
  const topo::NodeId host = present_computes(*inst.graph).front();
  select::SelectionContext ctx(*inst.snap);
  util::ThreadPool pool(0);
  for (const topo::NodeId bad : {topo::NodeId{-1}, n}) {
    EXPECT_THROW((void)ctx.pair_row(bad), std::out_of_range) << bad;
    // One bad source rejects the whole call, the valid one included.
    EXPECT_THROW(ctx.warm_rows(pool, {host, bad}), std::out_of_range) << bad;
  }
  EXPECT_EQ(counters("select.ctx.row_misses"), 0u);
  EXPECT_EQ(ctx.arena_bytes(), 0u);  // nothing was prepared either
  (void)ctx.pair_row(host);
  EXPECT_EQ(counters("select.ctx.row_misses"), 1u);
}

// ---------------------------------------------------------------------------
// Bounded-migration reselect
// ---------------------------------------------------------------------------

TEST(Reselect, UnboundedAdoptsTheOptimum) {
  auto inst = family_instance(0, 21);
  select::SelectionContext ctx(*inst.snap);
  auto hosts = present_computes(*inst.graph);
  std::vector<topo::NodeId> current(hosts.begin(), hosts.begin() + 6);

  api::ReselectOptions opt;
  opt.criterion = select::Criterion::Balanced;
  auto res = api::reselect(ctx, current, opt);
  ASSERT_TRUE(res.feasible);

  select::SelectionOptions sopt;
  sopt.num_nodes = 6;
  auto best = select::select_nodes(select::Criterion::Balanced, ctx, sopt);
  auto sorted_best = best.nodes;
  std::sort(sorted_best.begin(), sorted_best.end());
  EXPECT_EQ(res.nodes, sorted_best);
  EXPECT_EQ(res.migrations, static_cast<int>(res.migrated_in.size()));
  EXPECT_EQ(res.migrated_in.size(), res.migrated_out.size());
  EXPECT_DOUBLE_EQ(res.objective_after, res.objective_unbounded);
}

TEST(Reselect, ZeroBudgetKeepsAnEligiblePlacement) {
  auto inst = family_instance(1, 5);
  select::SelectionContext ctx(*inst.snap);
  auto hosts = present_computes(*inst.graph);
  std::vector<topo::NodeId> current(hosts.begin(), hosts.begin() + 4);

  api::ReselectOptions opt;
  opt.max_migrations = 0;
  auto res = api::reselect(ctx, current, opt);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.nodes, current);
  EXPECT_EQ(res.migrations, 0);
  EXPECT_DOUBLE_EQ(res.objective_after, res.objective_before);
}

TEST(Reselect, BudgetBoundsMigrationsAndNeverHurts) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto inst = family_instance(static_cast<int>(seed % 3), seed + 40);
    select::SelectionContext ctx(*inst.snap);
    auto hosts = present_computes(*inst.graph);
    // A deliberately bad starting placement: the last hosts by id.
    std::vector<topo::NodeId> current(hosts.end() - 5, hosts.end());
    for (int budget : {0, 1, 2, 4}) {
      api::ReselectOptions opt;
      opt.max_migrations = budget;
      auto res = api::reselect(ctx, current, opt);
      ASSERT_TRUE(res.feasible) << seed << " budget " << budget;
      EXPECT_LE(res.migrations, budget) << seed;
      EXPECT_GE(res.objective_after, res.objective_before) << seed;
      // The unconstrained "optimum" is itself a greedy heuristic, so a
      // bounded swap sequence can beat it — only require it to be positive.
      EXPECT_GT(res.objective_unbounded, 0.0) << seed;
      EXPECT_EQ(res.nodes.size(), current.size()) << seed;
    }
  }
}

TEST(Reselect, IneligibleMembersAreReplacedDespiteZeroBudget) {
  auto inst = family_instance(0, 9);
  auto& g = *inst.graph;
  auto& snap = *inst.snap;
  select::SelectionContext ctx(snap);
  auto hosts = present_computes(g);
  std::vector<topo::NodeId> current(hosts.begin(), hosts.begin() + 5);

  // Tear the first member out of the fabric entirely.
  const topo::NodeId victim = current[0];
  const auto span = g.links_of(victim);
  const std::vector<topo::LinkId> incident(span.begin(), span.end());
  for (topo::LinkId l : incident) {
    g.remove_link(l);
    snap.notify_link_removed(l);
  }
  g.remove_node(victim);
  snap.notify_node_removed(victim);

  api::ReselectOptions opt;
  opt.max_migrations = 0;
  auto res = api::reselect(ctx, current, opt);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.nodes.size(), current.size());
  EXPECT_FALSE(std::count(res.nodes.begin(), res.nodes.end(), victim));
  EXPECT_EQ(res.migrations, 1);  // the forced replacement, despite budget 0
  ASSERT_EQ(res.migrated_out.size(), 1u);
  EXPECT_EQ(res.migrated_out[0], victim);
}

TEST(Reselect, InfeasibleSelectionKeepsCurrentAndSaysSo) {
  // When the unconstrained selection is infeasible the current placement
  // stays in force: kept_current is the explicit signal, nodes are the
  // unchanged current set, and objective_after scores that kept set (it
  // must NOT report 0 — the job is still running there). The second
  // early-exit (refill exhaustion) shares the same contract but is
  // defensive: the optimum always has enough members to refill from.
  auto inst = family_instance(2, 13);
  select::SelectionContext ctx(*inst.snap);
  auto hosts = present_computes(*inst.graph);
  std::vector<topo::NodeId> current(hosts.begin(), hosts.begin() + 4);
  std::sort(current.begin(), current.end());

  api::ReselectOptions opt;
  opt.max_migrations = 2;
  // Impossible fixed requirement: no host is eligible, selection infeasible.
  opt.selection.min_cpu_fraction = 2.0;
  auto res = api::reselect(ctx, current, opt);
  EXPECT_FALSE(res.feasible);
  EXPECT_TRUE(res.kept_current);
  EXPECT_EQ(res.nodes, current);
  EXPECT_EQ(res.migrations, 0);
  EXPECT_TRUE(res.migrated_in.empty());
  EXPECT_TRUE(res.migrated_out.empty());
  EXPECT_GT(res.objective_before, 0.0);
  EXPECT_DOUBLE_EQ(res.objective_after, res.objective_before);
  EXPECT_NE(res.note.find("keeping"), std::string::npos) << res.note;

  // A reselection that actually ran never reports kept_current.
  api::ReselectOptions ok;
  ok.max_migrations = 2;
  auto solved = api::reselect(ctx, current, ok);
  ASSERT_TRUE(solved.feasible);
  EXPECT_FALSE(solved.kept_current);
}

TEST(Reselect, ScoreMatchesCriterion) {
  select::SetEvaluation ev;
  ev.connected = true;
  ev.min_cpu = 0.25;
  ev.min_pair_bw = 5e6;
  ev.balanced = 0.125;
  EXPECT_DOUBLE_EQ(
      api::criterion_score(select::Criterion::MaxCompute, ev), 0.25);
  EXPECT_DOUBLE_EQ(
      api::criterion_score(select::Criterion::MaxBandwidth, ev), 5e6);
  EXPECT_DOUBLE_EQ(api::criterion_score(select::Criterion::Balanced, ev),
                   0.125);
  ev.connected = false;
  EXPECT_DOUBLE_EQ(api::criterion_score(select::Criterion::Balanced, ev), 0.0);
}

}  // namespace
}  // namespace netsel
