// Prioritisation ablation (paper §3.3): the balanced algorithm "is easily
// modified to prioritize the optimization of one by a given factor".
//
// Part 1 isolates the mechanism on a controlled snapshot (idle-but-congested
// nodes vs loaded-but-clean nodes) and shows the factor flipping the chosen
// set, with the paper's "50% CPU == 25% bandwidth" example at kc = 2.
//
// Part 2 is end to end: under heavy load AND heavy traffic (both resources
// scarce — otherwise the factor cannot matter because one term never binds),
// a compute-heavy and a communication-heavy application run on placements
// selected under different priority factors.
//
// Usage: bench_priority [trials]   (default 12)

#include <cstdio>
#include <cstdlib>

#include "exp/experiment.hpp"
#include "select/algorithms.hpp"
#include "select/objective.hpp"
#include "topo/generators.hpp"
#include "util/table.hpp"

using namespace netsel;
using namespace netsel::exp;

namespace {

void snapshot_demo() {
  std::printf("-- 1. decision flip on a controlled snapshot --\n");
  // Pair A: idle cpu (1.0) behind 40/42%-available links.
  // Pair B: 50% cpu on clean links.
  auto g = topo::star(4);
  remos::NetworkSnapshot snap(g);
  snap.set_bw(0, 40e6);
  snap.set_bw(1, 42e6);
  snap.set_cpu(3, 0.5);
  snap.set_cpu(4, 0.5);
  util::TextTable t;
  t.header({"priority", "chosen pair", "objective", "interpretation"});
  for (auto [kc, kb, label] :
       {std::tuple{1.0, 1.0, "neutral"},
        {2.0, 1.0, "cpu x2 (50% cpu == 25% bw)"},
        {1.0, 2.0, "bw x2"}}) {
    select::SelectionOptions opt;
    opt.num_nodes = 2;
    opt.cpu_priority = kc;
    opt.bw_priority = kb;
    auto r = select::select_balanced(snap, opt);
    std::string pair(g.node_name(r.nodes[0]));
    pair += ",";
    pair += g.node_name(r.nodes[1]);
    bool idle_pair = r.nodes[0] == 1;
    t.row({label, pair, util::fmt(r.objective, 3),
           idle_pair ? "idle cpu, congested links"
                     : "half cpu, clean links"});
  }
  std::printf("%s\n", t.render().c_str());
}

AppCase compute_heavy() {
  appsim::LooselySyncConfig cfg;
  cfg.num_nodes = 4;
  cfg.iterations = 32;
  cfg.phases = {appsim::PhaseSpec{1.4, 0.25e6, appsim::CommPattern::AllToAll}};
  return AppCase{"compute-heavy", cfg};
}

AppCase comm_heavy() {
  appsim::LooselySyncConfig cfg;
  cfg.num_nodes = 4;
  cfg.iterations = 32;
  cfg.phases = {appsim::PhaseSpec{0.25, 5e6, appsim::CommPattern::AllToAll}};
  return AppCase{"comm-heavy", cfg};
}

void end_to_end(int trials) {
  std::printf(
      "-- 2. end-to-end under scarce cpu AND bandwidth (%d trials) --\n",
      trials);
  const std::uint64_t seed = 4242;
  util::TextTable t;
  t.header({"app", "neutral", "kc=2", "kc=4 (cpu prio)", "kb=2",
            "kb=4 (bw prio)"});
  int placements_changed = 0;
  int placements_total = 0;
  for (const AppCase& app : {compute_heavy(), comm_heavy()}) {
    std::vector<std::string> row{app.name};
    std::vector<std::vector<topo::NodeId>> neutral_nodes;
    for (auto [kc, kb] : {std::pair{1.0, 1.0},
                          {2.0, 1.0},
                          {4.0, 1.0},
                          {1.0, 2.0},
                          {1.0, 4.0}}) {
      Scenario s = table1_scenario(true, true);
      s.load.intensity = 1.5;
      s.traffic.intensity = 2.0;
      s.selection.cpu_priority = kc;
      s.selection.bw_priority = kb;
      util::OnlineStats stats;
      for (int tr = 0; tr < trials; ++tr) {
        auto r = run_trial(app, s, Policy::AutoBalanced,
                           seed + static_cast<std::uint64_t>(tr));
        stats.add(r.elapsed);
        bool neutral = kc == 1.0 && kb == 1.0;
        auto ts = static_cast<std::size_t>(tr);
        if (neutral) {
          if (neutral_nodes.size() <= ts) neutral_nodes.resize(ts + 1);
          neutral_nodes[ts] = r.nodes;
        } else if (ts < neutral_nodes.size() && !neutral_nodes[ts].empty()) {
          ++placements_total;
          if (r.nodes != neutral_nodes[ts]) ++placements_changed;
        }
      }
      row.push_back(util::fmt(stats.mean(), 1) + " +-" +
                    util::fmt(stats.ci_halfwidth(), 1));
    }
    t.row(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Placements that differed from the neutral choice: %d of %d.\n\n"
      "Finding (negative result, worth stating): on the Fig. 4 testbed the\n"
      "factor almost never changes the chosen set end to end — with 18\n"
      "hosts behind 3 routers there is nearly always a set that is best on\n"
      "both axes at once, so the min() objective picks it at any priority.\n"
      "The factor matters exactly when idle-but-congested and\n"
      "loaded-but-clean candidates coexist (part 1); the paper presents it\n"
      "as an API knob and reports no end-to-end numbers for it either.\n",
      placements_changed, placements_total);
}

}  // namespace

int main(int argc, char** argv) {
  int trials = argc > 1 ? std::atoi(argv[1]) : 12;
  std::printf("== Priority factor sweep (Fig. 3 objective min(cpu/kc, bw/kb)) ==\n\n");
  snapshot_demo();
  end_to_end(trials);
  return 0;
}
