// The incremental-vs-rebuilt oracle for the typed-delta snapshot path:
// a long-lived SelectionContext that consumes remos::Delta journals with
// fine-grained invalidation (in-place row value repair, per-row drop on
// switch-link removal, no row touched by an access link) must stay
// *bit-identical* to a context rebuilt from scratch after arbitrary delta
// sequences — orders, component decompositions, the half-edge neighbour
// array, bottleneck rows, selections under every criterion, and set
// evaluations; every checked row is also compared, node by node and bit for
// bit, with topo::bottleneck_row over the TopologyGraph. Also covers the
// journal mechanics (typed emission, bounded trimming, overflow fallback),
// the graph's CSR patches against a scan of its links, no row rebuild
// under value-only deltas, one test per
// compact-row delta rule, the source range check of pair_row, leaf sources
// reading their neighbour's row on hand-built edge cases and the fuzz
// stream, and the bounded-migration reselect layer with the exactness of
// its no-swap test, api::reselect_stays, and their option checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <set>
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

/// Bit equality: -0.0 and +0.0 compare equal but are different values.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_value(const PairValue& a, const PairValue& b) {
  return a.reached == b.reached && same_bits(a.bottleneck, b.bottleneck) &&
         same_bits(a.bottleneck2, b.bottleneck2) &&
         same_bits(a.latency, b.latency);
}

std::string show(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string describe(const PairValue& p) {
  return "{reached " + std::to_string(p.reached) + ", bw " +
         show(p.bottleneck) + ", bw2 " + show(p.bottleneck2) + ", lat " +
         show(p.latency) + "}";
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

  auto hosts = present_computes(g);
  for (std::size_t i = 0; i < hosts.size() && i < 12; ++i) {
    const std::string tag = what + " row " + std::to_string(hosts[i]);
    const PairRow row = inc.pair_row(hosts[i]);
    expect_rows_equal(row, fresh.pair_row(hosts[i]), g.node_count(), tag);
    expect_row_matches_kernel(row, snap, hosts[i], tag);
  }

  for (select::Criterion c : kCriteria) {
    select::SelectionOptions opt;
    opt.num_nodes = 4;
    auto a = select::select_nodes(c, inc, opt);
    auto b = select::select_nodes(c, fresh, opt);
    const std::string tag = what + " criterion " + select::criterion_name(c);
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
    const auto id = static_cast<topo::NodeId>(n);
    const topo::Node& node = src.node(id);
    if (node.kind() == topo::NodeKind::Compute)
      g.add_compute(src.node_name(id), node.cpu_capacity);
    else
      g.add_network(src.node_name(id));
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
          std::string name = "p";
          name += std::to_string(names++);
          g.add_compute(name);
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

/// Rows built after deltas: on a context that consumed value and structural
/// deltas after building its caches, the row pair_row() builds from every
/// present node reproduces the TopologyGraph reference kernel at every node.
TEST(IncrementalOracle, RowsBuiltAfterDeltasMatchKernel) {
  for (int family = 0; family < 3; ++family) {
    auto inst = family_instance(family, 7);
    select::SelectionContext ctx(*inst.snap);
    (void)ctx.pair_row(present_computes(*inst.graph).front());
    util::Rng rng(11);
    int names = 0;
    for (int step = 0; step < 12; ++step)
      random_mutation(rng, *inst.graph, *inst.snap, names);
    const std::string what = "family " + std::to_string(family);
    for (std::size_t i = 0; i < inst.graph->node_count(); ++i) {
      const auto src = static_cast<topo::NodeId>(i);
      if (!inst.graph->node_removed(src))
        expect_row_matches_kernel(ctx.pair_row(src), *inst.snap, src, what);
    }
    EXPECT_GT(ctx.arena_bytes(), 0u);
  }
}

TEST(IncrementalOracle, WarmedRowsStayConsistentAcrossDeltas) {
  auto inst = family_instance(0, 3);
  select::SelectionContext ctx(*inst.snap);
  for (topo::NodeId h : present_computes(*inst.graph)) (void)ctx.pair_row(h);
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

/// The stored nodes whose rows reading `srcs` builds: a source with two or
/// more links reads its own row, a source with one link its neighbour's.
std::set<topo::NodeId> row_bases(const topo::TopologyGraph& g,
                                 const std::vector<topo::NodeId>& srcs) {
  std::set<topo::NodeId> out;
  for (topo::NodeId s : srcs)
    out.insert(g.degree(s) >= 2 ? s : g.other_end(g.links_of(s)[0], s));
  return out;
}

TEST(CompactRows, AccessLinkBandwidthTouchesNoRow) {
  ScopedCounters counters;
  auto inst = compact_fat_tree();
  auto& snap = *inst.snap;
  const auto hosts = present_computes(*inst.graph);
  select::SelectionContext ctx(snap);
  for (topo::NodeId h : hosts) (void)ctx.pair_row(h);
  // Every host reads its edge switch's row: four builds for 20 hosts.
  const std::uint64_t misses = counters("select.ctx.row_misses");
  ASSERT_EQ(misses, row_bases(*inst.graph, hosts).size());
  ASSERT_EQ(misses, 4u);

  // The access link is a first hop or a derived leaf in every read, taken
  // from the weight arrays: the write drops and repairs nothing.
  const topo::NodeId host = hosts[3];
  const topo::LinkId access = inst.graph->links_of(host)[0];
  snap.set_bw(access, 0.3 * snap.maxbw(access));
  (void)ctx.link_bw();  // consume the delta
  EXPECT_EQ(counters("select.ctx.rows.invalidated.partial"), 0u);
  EXPECT_EQ(counters("select.ctx.rows.repaired"), 0u);
  EXPECT_EQ(counters("select.ctx.rows.invalidated.full"), 0u);
  // Every row reads the new value, the written host's own included, and
  // that host's next read is a hit.
  const std::uint64_t hits = counters("select.ctx.row_hits");
  expect_row_matches_kernel(ctx.pair_row(host), snap, host,
                            "the written host");
  EXPECT_EQ(counters("select.ctx.row_hits"), hits + 1);
  for (topo::NodeId h : hosts)
    expect_row_matches_kernel(ctx.pair_row(h), snap, h,
                              "after access-link write");
  EXPECT_EQ(counters("select.ctx.row_misses"), misses);
}

TEST(CompactRows, RemovingAnAccessLinkTouchesNoRow) {
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
  EXPECT_EQ(counters("select.ctx.rows.invalidated.partial"), 0u);
  EXPECT_EQ(counters("select.ctx.rows.invalidated.full"), 0u);
  for (topo::NodeId h : hosts) {
    if (h == gone) continue;
    const PairRow row = ctx.pair_row(h);
    EXPECT_FALSE(row.at(gone).reached) << h;
    expect_row_matches_kernel(row, snap, h, "after access-link removal");
  }
  EXPECT_EQ(counters("select.ctx.row_misses"), misses);
  // The detached host reads no row and reaches only itself.
  const std::uint64_t hits = counters("select.ctx.row_hits");
  const PairRow alone = ctx.pair_row(gone);
  for (std::size_t v = 0; v < g.node_count(); ++v)
    EXPECT_EQ(alone.at(static_cast<topo::NodeId>(v)).reached,
              static_cast<topo::NodeId>(v) == gone)
        << v;
  expect_row_matches_kernel(alone, snap, gone, "detached row");
  EXPECT_EQ(counters("select.ctx.row_misses"), misses);
  EXPECT_EQ(counters("select.ctx.row_hits"), hits);
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
  const std::set<topo::NodeId> bases = row_bases(g, srcs);
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
  // repairs every built switch row whose tree reaches the switch through
  // it, not just the switch's own row.
  const topo::LinkId last = incident.front();
  ASSERT_FALSE(g.is_compute(g.other_end(last, edge)));
  std::uint64_t reaching = 0;
  {
    std::vector<double> bw(g.link_count(), 1.0);
    for (topo::NodeId s : bases)
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
  const std::size_t built = row_bases(g, hosts).size();
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
  // The full drop counts the built rows: the hosts' four edge switches.
  EXPECT_EQ(counters("select.ctx.rows.invalidated.full"), built);
  EXPECT_EQ(built, 4u);
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
  for (const topo::NodeId bad : {topo::NodeId{-1}, n})
    EXPECT_THROW((void)ctx.pair_row(bad), std::out_of_range) << bad;
  EXPECT_EQ(counters("select.ctx.row_misses"), 0u);
  EXPECT_EQ(ctx.arena_bytes(), 0u);  // nothing was prepared either
  (void)ctx.pair_row(host);
  EXPECT_EQ(counters("select.ctx.row_misses"), 1u);
}

// ---------------------------------------------------------------------------
// Leaf sources: a host reads its switch's row
// ---------------------------------------------------------------------------

/// Every node's row at every node, bit for bit, against the kernel.
void expect_every_row_matches_kernel(const select::SelectionContext& ctx,
                                     const remos::NetworkSnapshot& snap,
                                     const std::string& what) {
  std::vector<topo::NodeId> all(snap.graph().node_count());
  std::iota(all.begin(), all.end(), topo::NodeId{0});
  expect_rows_match_kernel(ctx, snap, all, what);
}

/// A small fabric of row edge cases. Switches s0-s1-s2-s3 form a ring whose
/// latencies do not regroup: from a host of s0 the kernel sums
/// ((first hop + 0.2) + 0.3) to reach s2, not first hop + (0.2 + 0.3). The
/// four hosts of s0 sit behind access latencies 0.3, 0.1, -0.0 and 0.3, so
/// s0's row serves three columns, the -0.0 one shared with s0's own reads.
/// s4 links s2 and host h9; h6-h7 is a two-leaf component; h8 is isolated.
struct Zoo {
  Instance inst;
  std::vector<topo::NodeId> s;       // switches s0..s4
  std::vector<topo::NodeId> h;       // hosts h0..h9
  std::vector<topo::LinkId> access;  // h0..h5's access links
  topo::LinkId s0s1 = topo::kInvalidLink;
  topo::LinkId s4s2 = topo::kInvalidLink;
};

Zoo leaf_zoo() {
  Zoo z;
  z.inst.graph = std::make_unique<topo::TopologyGraph>();
  auto& g = *z.inst.graph;
  for (int i = 0; i < 5; ++i)
    z.s.push_back(g.add_network(std::string("s") + std::to_string(i)));
  for (int i = 0; i < 10; ++i)
    z.h.push_back(g.add_compute(std::string("h") + std::to_string(i)));
  auto link = [&](topo::NodeId a, topo::NodeId b, double mbps, double lat) {
    topo::TopologyGraph::LinkSpec spec;
    spec.capacity_ab = mbps * topo::kMbps;
    spec.latency = lat;
    return g.add_link(a, b, spec);
  };
  z.s0s1 = link(z.s[0], z.s[1], 100, 0.2);
  link(z.s[1], z.s[2], 80, 0.3);
  link(z.s[2], z.s[3], 60, -0.0);
  link(z.s[3], z.s[0], 90, 0.7);
  z.s4s2 = link(z.s[4], z.s[2], 40, 0.25);
  const double s0_latency[] = {0.3, 0.1, -0.0, 0.3};
  for (int i = 0; i < 4; ++i)
    z.access.push_back(link(z.s[0], z.h[static_cast<std::size_t>(i)],
                            50 + 10 * i, s0_latency[i]));
  z.access.push_back(link(z.s[1], z.h[4], 70, 1e-3));
  z.access.push_back(link(z.s[1], z.h[5], 30, 0.7));
  link(z.h[6], z.h[7], 20, 0.05);
  link(z.s[4], z.h[9], 45, 0.125);
  z.inst.snap = std::make_unique<remos::NetworkSnapshot>(g);
  return z;
}

TEST(LeafSourceRows, EdgeCasesMatchKernelBitForBit) {
  ScopedCounters counters;
  Zoo z = leaf_zoo();
  auto& g = *z.inst.graph;
  auto& snap = *z.inst.snap;
  select::SelectionContext ctx(snap);
  expect_every_row_matches_kernel(ctx, snap, "fresh");
  // Rows are built at the five switches only; every host reads one of
  // them, or none.
  EXPECT_EQ(counters("select.ctx.row_misses"), 5u);

  // A -0.0 write on an access link next to a +0.0 switch link: from h0 the
  // kernel keeps the first hop's -0.0 on every path through s0-s1.
  snap.set_bw(z.s0s1, 0.0);
  snap.set_bw(z.access[0], -0.0);
  expect_every_row_matches_kernel(ctx, snap, "-0.0 first hop");
  EXPECT_TRUE(std::signbit(ctx.pair_row(z.h[0]).at(z.s[1]).bottleneck));

  // +0.0 then -0.0 on one access link: equal as doubles, different values.
  snap.set_bw(z.access[1], 0.0);
  expect_every_row_matches_kernel(ctx, snap, "+0.0 first hop");
  snap.set_bw(z.access[1], -0.0);
  expect_every_row_matches_kernel(ctx, snap, "+0.0 -> -0.0 on one link");

  // s4 falls to one link, its host's: still stored, it is h9's base.
  g.remove_link(z.s4s2);
  snap.notify_link_removed(z.s4s2);
  ASSERT_EQ(g.degree(z.s[4]), 1u);
  expect_every_row_matches_kernel(ctx, snap, "a switch of degree 1");
  EXPECT_TRUE(ctx.pair_row(z.h[9]).at(z.s[4]).reached);

  // A host added, then joined by a link: unreached until the LinkAdded
  // relayout, then a leaf reading its switch's row.
  const topo::NodeId joined = g.add_compute("h10");
  snap.notify_node_added(joined);
  expect_every_row_matches_kernel(ctx, snap, "host added");
  topo::TopologyGraph::LinkSpec spec;
  spec.capacity_ab = 55 * topo::kMbps;
  spec.latency = 0.4;
  const topo::LinkId l = g.add_link(z.s[2], joined, spec);
  snap.notify_link_added(l);
  expect_every_row_matches_kernel(ctx, snap, "host joined");
}

TEST(LeafSourceRows, EveryRowMatchesKernelThroughTheFuzzStream) {
  for (int family = 0; family < 4; ++family) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      Instance inst = family < 3 ? family_instance(family, seed + 50)
                                 : std::move(leaf_zoo().inst);
      select::SelectionContext ctx(*inst.snap);
      const std::string what =
          "family " + std::to_string(family) + " seed " + std::to_string(seed);
      expect_every_row_matches_kernel(ctx, *inst.snap, what + " fresh");
      util::Rng rng(seed * 13 + static_cast<std::uint64_t>(family) + 1);
      int names = 0;
      for (int batch = 0; batch < 6; ++batch) {
        for (int k = 0; k < 3; ++k)
          random_mutation(rng, *inst.graph, *inst.snap, names);
        expect_every_row_matches_kernel(
            ctx, *inst.snap, what + " batch " + std::to_string(batch));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
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

/// api::reselect_stays is exact for the swap loop. On random states of a
/// small fat-tree and a random core-edge graph, under every criterion and
/// budgets 0-2: whenever it holds, no member is forced out, reselect
/// returns the current nodes with 0 migrations, and (budget > 0) no single
/// swap of a member for any other eligible host beats the current score.
/// Budget 0 holds exactly when no member is forced out; the unbounded
/// budget -1 never holds. Sensor values come from small discrete sets so
/// that the ties the test turns on are common, and a minimum-cpu
/// requirement forces members out in some trials. With a budget each
/// criterion must see the predicate both hold and fail, so a predicate
/// that never holds cannot pass.
TEST(Reselect, StaysPredicateIsExactForTheSwapLoop) {
  const select::Criterion criteria[] = {select::Criterion::MaxCompute,
                                        select::Criterion::MaxBandwidth,
                                        select::Criterion::Balanced};
  const double loads[] = {0.0, 1.0, 1.0, 3.0};
  const double fractions[] = {0.1, 0.5, 0.5, 1.0};
  int held[3] = {0, 0, 0};
  int failed[3] = {0, 0, 0};
  for (int family : {0, 2}) {
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      auto inst = family_instance(family, seed + 60);
      auto& g = *inst.graph;
      auto& snap = *inst.snap;
      util::Rng rng(seed * 3 + static_cast<std::uint64_t>(family));
      const auto hosts = present_computes(g);
      for (topo::NodeId h : hosts)
        snap.set_loadavg(h, loads[rng.uniform_int(0, 3)]);
      for (topo::LinkId l : present_links(g))
        if (rng.bernoulli(0.6))
          snap.set_bw(l, fractions[rng.uniform_int(0, 3)] * snap.maxbw(l));
      select::SelectionContext ctx(snap);
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<topo::NodeId> pool = hosts;
        std::shuffle(pool.begin(), pool.end(), rng.engine());
        const auto m = static_cast<std::size_t>(rng.uniform_int(2, 5));
        std::vector<topo::NodeId> current(pool.begin(), pool.begin() + m);
        std::vector<topo::NodeId> sorted = current;
        std::sort(sorted.begin(), sorted.end());
        for (int c = 0; c < 3; ++c) {
          for (int budget = -1; budget <= 2; ++budget) {
            api::ReselectOptions opt;
            opt.criterion = criteria[c];
            opt.max_migrations = budget;
            opt.selection.min_cpu_fraction = trial == 3 ? 0.4 : 0.0;
            opt.selection.num_nodes = static_cast<int>(m);
            const std::string what =
                "family " + std::to_string(family) + " seed " +
                std::to_string(seed) + " trial " + std::to_string(trial) +
                " criterion " + std::to_string(c) + " budget " +
                std::to_string(budget);
            const bool forced = std::any_of(
                current.begin(), current.end(), [&](topo::NodeId n) {
                  return !select::node_eligible(snap, n, opt.selection);
                });
            const bool stays = api::reselect_stays(ctx, current, opt);
            if (budget < 0) {
              EXPECT_FALSE(stays) << what;
            } else if (budget == 0) {
              EXPECT_EQ(stays, !forced) << what;
            } else if (!forced) {
              ++(stays ? held[c] : failed[c]);
            }
            if (!stays) continue;
            EXPECT_FALSE(forced) << what;
            const api::ReselectResult r = api::reselect(ctx, current, opt);
            EXPECT_EQ(r.nodes, sorted) << what;
            EXPECT_EQ(r.migrations, 0) << what;
            if (budget == 0) continue;
            const auto score = [&](const std::vector<topo::NodeId>& set) {
              return api::criterion_score(
                  criteria[c], select::evaluate_set(ctx, set, opt.selection));
            };
            const double now = score(sorted);
            for (std::size_t o = 0; o < m; ++o)
              for (topo::NodeId in : hosts) {
                if (std::count(sorted.begin(), sorted.end(), in) ||
                    !select::node_eligible(snap, in, opt.selection))
                  continue;
                std::vector<topo::NodeId> swapped = sorted;
                swapped[o] = in;
                EXPECT_LE(score(swapped), now)
                    << what << ": swapping " << sorted[o] << " for " << in;
              }
          }
        }
      }
    }
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_GT(held[c], 0) << "criterion " << c;
    EXPECT_GT(failed[c], 0) << "criterion " << c;
  }
}

TEST(Reselect, InvalidOptionsThrowBeforeAnyRead) {
  auto inst = family_instance(0, 9);
  select::SelectionContext ctx(*inst.snap);
  const auto hosts = present_computes(*inst.graph);
  const std::vector<topo::NodeId> current(hosts.begin(), hosts.begin() + 3);
  api::ReselectOptions short_mask;
  short_mask.selection.eligible.assign(2, 1);  // shorter than node_count()
  api::ReselectOptions nan_priority;
  nan_priority.selection.cpu_priority = std::nan("");
  for (const api::ReselectOptions* base : {&short_mask, &nan_priority}) {
    for (const int budget : {-1, 0, 1}) {
      api::ReselectOptions opt = *base;
      opt.max_migrations = budget;
      EXPECT_THROW((void)api::reselect(ctx, current, opt),
                   std::invalid_argument)
          << budget;
      EXPECT_THROW((void)api::reselect_stays(ctx, current, opt),
                   std::invalid_argument)
          << budget;
    }
  }
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
