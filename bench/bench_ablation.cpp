// Ablations over the design choices DESIGN.md calls out:
//   1. Selection criterion: balanced (Fig. 3) vs compute-only vs
//      bandwidth-only vs random vs static, under load+traffic.
//   2. Fig. 3 variants: paper stop rule vs exhaustive sweep, all-component-
//      edges minbw vs Steiner-restricted minbw (solution quality on random
//      instances, judged by the exact pairwise objective and brute force).
//   3. Remos forecaster: last-value (the paper's choice) vs window-mean vs
//      EWMA at selection time.
//
// Usage: bench_ablation [trials]   (default 12)

#include <cstdio>
#include <cstdlib>

#include "exp/table1.hpp"
#include "select/brute_force.hpp"
#include "select/latency.hpp"
#include "select/objective.hpp"
#include "topo/generators.hpp"
#include "util/table.hpp"

using namespace netsel;
using namespace netsel::exp;

namespace {

void criterion_ablation(int trials) {
  std::printf("-- 1. selection policy spectrum (load+traffic, %d trials) --\n",
              trials);
  util::TextTable t;
  t.header({"app", "random", "static", "auto-compute", "auto-bandwidth",
            "auto-balanced"});
  for (const AppCase& app : {fft_case(), airshed_case()}) {
    std::vector<std::string> row{app.name};
    for (Policy p : {Policy::Random, Policy::Static, Policy::AutoCompute,
                     Policy::AutoBandwidth, Policy::AutoBalanced}) {
      auto stats = run_cell(app, table1_scenario(true, true), p, trials, 900);
      row.push_back(util::fmt(stats.mean(), 1));
    }
    t.row(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
}

void fig3_variant_ablation() {
  std::printf(
      "-- 2. Fig. 3 variants on 200 random instances (pairwise objective, "
      "fraction of brute-force optimum) --\n");
  struct Variant {
    const char* name;
    bool exhaustive;
    bool steiner;
  };
  const Variant variants[] = {
      {"paper rule, component edges", false, false},
      {"exhaustive, component edges", true, false},
      {"paper rule, steiner edges", false, true},
      {"exhaustive, steiner edges", true, true},
  };
  util::TextTable t;
  t.header({"variant", "mean frac of optimum", "at optimum", "worst case"});
  for (const Variant& v : variants) {
    util::Rng rng(31337);
    double sum = 0.0, worst = 1.0;
    int optimal = 0;
    const int instances = 200;
    for (int i = 0; i < instances; ++i) {
      topo::RandomTreeOptions topt;
      topt.compute_nodes = 9;
      topt.network_nodes = 3;
      auto g = topo::random_tree(rng, topt);
      remos::NetworkSnapshot snap(g);
      for (auto n : g.compute_nodes())
        snap.set_loadavg(n, rng.uniform(0.0, 2.5));
      for (std::size_t l = 0; l < g.link_count(); ++l) {
        auto id = static_cast<topo::LinkId>(l);
        snap.set_bw(id, rng.uniform(0.05, 1.0) * snap.maxbw(id));
      }
      select::SelectionOptions opt;
      opt.num_nodes = 4;
      opt.exhaustive_balanced = v.exhaustive;
      opt.steiner_restricted = v.steiner;
      auto algo = select::select_balanced(snap, opt);
      opt.steiner_restricted = false;
      auto exact =
          select::brute_force_select(snap, opt, select::Criterion::Balanced);
      double got = select::evaluate_set(snap, algo.nodes, opt).balanced;
      double frac = exact.objective > 0 ? got / exact.objective : 1.0;
      sum += frac;
      worst = std::min(worst, frac);
      if (frac >= 1.0 - 1e-9) ++optimal;
    }
    t.row({v.name, util::fmt(sum / instances, 3),
           util::fmt(100.0 * optimal / instances, 0) + "%",
           util::fmt(worst, 3)});
  }
  std::printf("%s\n", t.render().c_str());
}

void forecaster_ablation(int trials) {
  std::printf("-- 3. Remos forecaster at selection time (load+traffic, %d "
              "trials) --\n",
              trials);
  struct F {
    const char* name;
    remos::ForecasterPtr fc;
  };
  const F forecasters[] = {
      {"last-value (paper)", std::make_shared<remos::LastValue>()},
      {"window-mean (30s)", std::make_shared<remos::WindowMean>()},
      {"ewma(0.3)", std::make_shared<remos::Ewma>(0.3)},
      {"window-max (conservative)", std::make_shared<remos::WindowMax>()},
      {"linear-trend", std::make_shared<remos::LinearTrend>()},
      {"adaptive (NWS-style)", std::make_shared<remos::Adaptive>()},
  };
  util::TextTable t;
  t.header({"forecaster", "FFT auto (s)", "Airshed auto (s)"});
  for (const F& f : forecasters) {
    std::vector<std::string> row{f.name};
    for (const AppCase& app : {fft_case(), airshed_case()}) {
      Scenario s = table1_scenario(true, true);
      s.forecaster = f.fc;
      auto stats = run_cell(app, s, Policy::AutoBalanced, trials, 1100);
      row.push_back(util::fmt(stats.mean(), 1) + " +-" +
                    util::fmt(stats.ci_halfwidth(), 1));
    }
    t.row(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
}

void niced_load_ablation(int trials) {
  std::printf(
      "-- 5. equal-priority assumption (§3.1) vs niced background load --\n");
  // The paper's cpu = 1/(1+loadavg) assumes competing jobs share equally.
  // With niced (weight-0.2) background jobs, loadavg still rises by 1 per
  // job but the application keeps far more of the CPU, so the same
  // selection decisions operate on a pessimistic signal. Measured: how
  // much the slowdown shrinks, and whether auto still beats random.
  util::TextTable t;
  t.header({"background priority", "FFT random (s)", "FFT auto (s)",
            "auto gain"});
  for (auto [label, weight] :
       {std::pair<const char*, double>{"equal (paper)", 1.0},
        {"niced (weight 0.2)", 0.2}}) {
    Scenario s = table1_scenario(true, false);
    s.load.job_weight = weight;
    auto rnd = run_cell(fft_case(), s, Policy::Random, trials, 1300);
    auto aut = run_cell(fft_case(), s, Policy::AutoBalanced, trials, 1300);
    t.row({label, util::fmt(rnd.mean(), 1), util::fmt(aut.mean(), 1),
           util::fmt_pct_change(rnd.mean(), aut.mean())});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Expected shape: niced background hurts far less in absolute terms;\n"
      "selection still helps (the loadavg signal stays a valid *ordering*\n"
      "of nodes even when its magnitude is pessimistic).\n\n");
}

void latency_extension_demo() {
  std::printf(
      "-- 4. latency-aware extension (paper §3.4 future work) on a WAN-ish "
      "topology --\n");
  // Three campuses joined by high-latency trunks; hosts are idle, so the
  // bandwidth-driven algorithms are indifferent — only the latency-aware
  // selection clusters the job.
  topo::TopologyGraph g;
  std::vector<topo::NodeId> campuses;
  for (int c = 0; c < 3; ++c)
    campuses.push_back(g.add_network("campus" + std::to_string(c)));
  for (int c = 0; c < 3; ++c) {
    topo::TopologyGraph::LinkSpec trunk;
    trunk.capacity_ab = 1e9;
    trunk.latency = 15e-3;
    if (c > 0) g.add_link(campuses[0], campuses[static_cast<std::size_t>(c)], trunk);
    for (int h = 0; h < 4; ++h) {
      auto host = g.add_compute("c" + std::to_string(c) + "h" + std::to_string(h));
      topo::TopologyGraph::LinkSpec access;
      access.capacity_ab = 100e6;
      access.latency = 0.2e-3;
      g.add_link(campuses[static_cast<std::size_t>(c)], host, access);
    }
  }
  g.validate();
  remos::NetworkSnapshot snap(g);
  // The lightest-loaded nodes are scattered one per campus, so purely
  // cpu/bandwidth-driven selection spreads the job across the WAN.
  const double loads[3][4] = {{0.00, 0.03, 0.70, 0.80},
                              {0.01, 0.50, 0.60, 0.70},
                              {0.02, 0.55, 0.65, 0.90}};
  for (int c = 0; c < 3; ++c) {
    for (int h = 0; h < 4; ++h) {
      auto n = g.find_node("c" + std::to_string(c) + "h" + std::to_string(h));
      snap.set_loadavg(*n, loads[c][h]);
    }
  }
  select::SelectionOptions opt;
  opt.num_nodes = 4;
  auto balanced = select::select_balanced(snap, opt);
  auto latency = select::select_min_latency(snap, opt);
  auto show = [&](const char* name, const select::SelectionResult& r) {
    auto ev = select::evaluate_set(snap, r.nodes, opt);
    std::printf("  %-22s max pairwise latency %6.2f ms  (nodes:", name,
                ev.max_pair_latency * 1e3);
    for (auto n : r.nodes)
      std::printf(" %s", std::string(g.node_name(n)).c_str());
    std::printf(")\n");
  };
  show("balanced (Fig. 3)", balanced);
  show("min-latency extension", latency);
  auto bounded = select::select_balanced_latency_bound(snap, opt, 1e-3);
  show("balanced + 1ms ceiling", bounded);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  int trials = argc > 1 ? std::atoi(argv[1]) : 12;
  std::printf("== Ablation studies ==\n\n");
  criterion_ablation(trials);
  fig3_variant_ablation();
  forecaster_ablation(trials);
  niced_load_ablation(trials);
  latency_extension_demo();
  return 0;
}
