#include "exp/exact.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "remos/snapshot.hpp"
#include "select/algorithms.hpp"
#include "select/bnb.hpp"
#include "select/context.hpp"
#include "topo/synthetic.hpp"

namespace netsel::exp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct FamilyInstance {
  std::string name;
  std::unique_ptr<topo::TopologyGraph> graph;
  std::unique_ptr<remos::NetworkSnapshot> snap;
};

std::vector<FamilyInstance> build_families(const ExactGridOptions& opt) {
  std::vector<FamilyInstance> out;
  {
    auto ft = topo::fat_tree_for_hosts(opt.hosts, 12, 2.0, opt.seed);
    ft.cpu_jitter = 0.3;
    FamilyInstance f;
    f.name = "fat_tree";
    f.graph = std::make_unique<topo::TopologyGraph>(topo::fat_tree(ft));
    out.push_back(std::move(f));
  }
  {
    topo::CampusWanOptions cw;
    cw.campuses = 3;
    cw.buildings_per_campus = 4;
    cw.hosts_per_building = opt.hosts / 12;
    cw.seed = opt.seed;
    FamilyInstance f;
    f.name = "campus_wan";
    f.graph = std::make_unique<topo::TopologyGraph>(topo::campus_wan(cw));
    out.push_back(std::move(f));
  }
  {
    topo::RandomCoreEdgeOptions ce;
    ce.core_switches = 6;
    ce.edge_switches = 16;
    ce.hosts = opt.hosts;
    ce.seed = opt.seed;
    FamilyInstance f;
    f.name = "random_core_edge";
    f.graph =
        std::make_unique<topo::TopologyGraph>(topo::random_core_edge(ce));
    out.push_back(std::move(f));
  }
  for (auto& f : out) {
    f.snap = std::make_unique<remos::NetworkSnapshot>(*f.graph);
    remos::apply_synthetic_load(*f.snap, opt.seed * 31 + 7);
  }
  return out;
}

ExactCell run_cell(const select::SelectionContext& ctx,
                   const std::string& family, const std::string& variant,
                   select::Criterion c, const select::SelectionOptions& sel,
                   const ExactGridOptions& opt) {
  ExactCell cell;
  cell.family = family;
  cell.variant = variant;
  cell.m = sel.num_nodes;
  cell.criterion = c;

  // The greedy answer, scored on the exact pairwise scale.
  const auto greedy = select::select_nodes(c, ctx, sel);
  cell.greedy_feasible = greedy.feasible;
  if (greedy.feasible)
    cell.greedy_value = select::exact_set_value(ctx, sel, c, greedy.nodes);

  select::BnbBudget budget;
  budget.node_budget = opt.node_budget;
  budget.max_open = opt.max_open;
  const auto t0 = std::chrono::steady_clock::now();
  const auto bnb = select::branch_and_bound_select(ctx, sel, c, budget);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  cell.seconds = dt.count();
  cell.exact_feasible = bnb.feasible;
  cell.exact_value = bnb.objective;
  cell.upper_bound = bnb.upper_bound;
  cell.certified = bnb.certified;
  cell.stop = select::bnb_stop_name(bnb.stop);
  cell.expanded = bnb.stats.expanded;
  cell.pushed = bnb.stats.pushed;
  cell.pool = bnb.stats.pool_size;
  if (opt.verbose)
    std::fprintf(stderr, "  %s %s m=%d %s: ratio=%.4f %s (%llu expanded)\n",
                 family.c_str(), select::criterion_name(c), cell.m,
                 variant.empty() ? "base" : variant.c_str(),
                 cell.greedy_ratio(), cell.certified ? "exact" : "bound",
                 static_cast<unsigned long long>(cell.expanded));
  return cell;
}

}  // namespace

double ExactCell::greedy_ratio() const {
  if (!greedy_feasible || !std::isfinite(greedy_value) ||
      !std::isfinite(upper_bound) || upper_bound <= 0.0)
    return std::numeric_limits<double>::quiet_NaN();
  return greedy_value / upper_bound;
}

std::vector<ExactCell> run_exact_grid(const ExactGridOptions& opt) {
  std::vector<ExactCell> cells;
  auto families = build_families(opt);
  for (const auto& f : families) {
    select::SelectionContext ctx(*f.snap);
    if (opt.verbose) std::fprintf(stderr, "%s:\n", f.name.c_str());
    for (int m : opt.ms) {
      for (select::Criterion c :
           {select::Criterion::MaxCompute, select::Criterion::MaxBandwidth,
            select::Criterion::Balanced}) {
        select::SelectionOptions sel;
        sel.num_nodes = m;
        cells.push_back(run_cell(ctx, f.name, "", c, sel, opt));
      }
    }
  }
  if (opt.constraint_cells) {
    // Fixed-constraint x prioritization block (paper Sec. 3.3): balanced
    // criterion on the fat-tree instance at m = 8.
    const auto& f = families[0];
    select::SelectionContext ctx(*f.snap);
    struct Combo {
      const char* name;
      double cpu_p, bw_p, min_bw;
    };
    const Combo combos[] = {
        {"cpu1_bw1", 1.0, 1.0, 0.0},
        {"cpu2_bw1", 2.0, 1.0, 0.0},
        {"cpu1_bw2", 1.0, 2.0, 0.0},
        {"cpu1_bw1_min40", 1.0, 1.0, 40 * topo::kMbps},
        {"cpu2_bw1_min40", 2.0, 1.0, 40 * topo::kMbps},
        {"cpu1_bw2_min40", 1.0, 2.0, 40 * topo::kMbps},
    };
    if (opt.verbose) std::fprintf(stderr, "constraints (fat_tree, m=8):\n");
    for (const Combo& combo : combos) {
      select::SelectionOptions sel;
      sel.num_nodes = 8;
      sel.cpu_priority = combo.cpu_p;
      sel.bw_priority = combo.bw_p;
      sel.min_bw_bps = combo.min_bw;
      cells.push_back(run_cell(ctx, f.name, combo.name,
                               select::Criterion::Balanced, sel, opt));
    }
  }
  return cells;
}

std::string format_exact_grid(const std::vector<ExactCell>& cells,
                              const ExactGridOptions& opt) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "Optimality-gap certification (seed %llu, node budget %llu "
                "per cell)\n",
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(opt.node_budget));
  out += line;
  std::snprintf(line, sizeof(line), "%-17s %-16s %4s %-10s %9s %12s %9s %s\n",
                "family", "variant/crit", "m", "status", "ratio", "expanded",
                "pool", "greedy<=opt<=bound");
  out += line;
  for (const ExactCell& c : cells) {
    const double ratio = c.greedy_ratio();
    char bracket[96];
    if (c.greedy_feasible && c.exact_feasible)
      std::snprintf(bracket, sizeof(bracket), "%.6g <= opt <= %.6g",
                    c.greedy_value, c.upper_bound);
    else
      std::snprintf(bracket, sizeof(bracket), "infeasible");
    std::snprintf(
        line, sizeof(line), "%-17s %-16s %4d %-10s %9.4f %12llu %9zu %s\n",
        c.family.c_str(),
        c.variant.empty() ? select::criterion_name(c.criterion)
                          : c.variant.c_str(),
        c.m, c.certified ? "exact" : c.stop.c_str(),
        std::isnan(ratio) ? 0.0 : ratio,
        static_cast<unsigned long long>(c.expanded), c.pool, bracket);
    out += line;
  }
  return out;
}

std::string exact_grid_csv(const std::vector<ExactCell>& cells,
                           const ExactGridOptions&) {
  std::string out =
      "family,variant,criterion,m,pool,greedy_value,exact_value,upper_bound,"
      "greedy_ratio,certified,stop,expanded,pushed,seconds\n";
  char line[320];
  for (const ExactCell& c : cells) {
    std::snprintf(line, sizeof(line),
                  "%s,%s,%s,%d,%zu,%.17g,%.17g,%.17g,%.6f,%d,%s,%llu,%llu,"
                  "%.4f\n",
                  c.family.c_str(), c.variant.c_str(),
                  select::criterion_name(c.criterion), c.m, c.pool,
                  c.greedy_value, c.exact_value, c.upper_bound,
                  c.greedy_ratio(), c.certified ? 1 : 0, c.stop.c_str(),
                  static_cast<unsigned long long>(c.expanded),
                  static_cast<unsigned long long>(c.pushed), c.seconds);
    out += line;
  }
  return out;
}

}  // namespace netsel::exp
