#include "exp/table1.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/table.hpp"

namespace netsel::exp {

namespace {
Scenario condition_scenario(int condition) {
  switch (condition) {
    case kLoadOnly: return table1_scenario(true, false);
    case kTrafficOnly: return table1_scenario(false, true);
    case kLoadAndTraffic: return table1_scenario(true, true);
    default: throw std::invalid_argument("bad condition");
  }
}

const char* condition_name(int condition) {
  return condition == kLoadOnly      ? "load"
         : condition == kTrafficOnly ? "traffic"
                                     : "load+traffic";
}
}  // namespace

std::vector<MeasuredRow> run_table1(const Table1Options& opt) {
  const std::vector<AppCase> apps = {fft_case(), airshed_case(), mri_case()};
  // Per app and condition: the baseline cell, then the auto cell. Seeds are
  // derived per cell, never from list order.
  std::vector<Cell> cells;
  for (const AppCase& app : apps)
    for (int cond : {kLoadOnly, kTrafficOnly, kLoadAndTraffic})
      for (Policy policy : {Policy::Random, Policy::AutoBalanced})
        cells.push_back({app, condition_scenario(cond), policy, opt.trials,
                         cell_seed(opt.seed, app.name, policy, cond)});
  std::vector<CellResult> results = run_cells(cells, opt.threads);

  std::vector<MeasuredRow> rows(apps.size());
  std::size_t next = 0;
  for (std::size_t r = 0; r < apps.size(); ++r) {
    const AppCase& app = apps[r];
    MeasuredRow& row = rows[r];
    row.app = app.name;
    row.nodes = app.num_nodes();
    // Unloaded reference: idle testbed, automatic placement, deterministic.
    row.reference =
        run_trial(app, table1_scenario(false, false), Policy::AutoBalanced,
                  cell_seed(opt.seed, app.name, Policy::AutoBalanced,
                            kReference))
            .elapsed;
    if (opt.verbose)
      std::fprintf(stderr, "  %-9s reference (unloaded) = %7.1fs\n",
                   app.name.c_str(), row.reference);
    for (std::size_t cond = 0; cond < 3; ++cond) {
      for (CellResult* cell : {&row.random_sel[cond], &row.auto_sel[cond]}) {
        const Cell& spec = cells[next];
        *cell = std::move(results[next++]);
        if (opt.verbose)
          std::fprintf(stderr,
                       "  %-9s %-14s %-13s mean=%7.1fs  +-%5.1f (n=%zu, %d "
                       "failed)\n",
                       app.name.c_str(), policy_name(spec.policy),
                       condition_name(static_cast<int>(cond)), cell->mean(),
                       cell->ci_halfwidth(0.95), cell->count(),
                       cell->failures);
      }
    }
  }
  return rows;
}

std::string format_table1(const std::vector<MeasuredRow>& rows) {
  util::TextTable t;
  t.header({"Application", "Nodes", "Selection", "Proc Load", "Net Traffic",
            "Load+Traffic", "Unloaded Ref"});
  auto pct = [](double from, double to) {
    return util::fmt(to, 1) + " " + util::fmt_pct_change(from, to);
  };
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const MeasuredRow& m = rows[r];
    const PaperRow& p = kPaperTable1[r];
    t.row({m.app, std::to_string(m.nodes), "random (measured)",
           util::fmt(m.random_sel[0].mean(), 1),
           util::fmt(m.random_sel[1].mean(), 1),
           util::fmt(m.random_sel[2].mean(), 1), util::fmt(m.reference, 1)});
    t.row({"", "", "auto (measured)",
           pct(m.random_sel[0].mean(), m.auto_sel[0].mean()),
           pct(m.random_sel[1].mean(), m.auto_sel[1].mean()),
           pct(m.random_sel[2].mean(), m.auto_sel[2].mean()), ""});
    t.row({"", "", "random (paper)", util::fmt(p.random_sel[0], 1),
           util::fmt(p.random_sel[1], 1), util::fmt(p.random_sel[2], 1),
           util::fmt(p.reference, 1)});
    t.row({"", "", "auto (paper)", pct(p.random_sel[0], p.auto_sel[0]),
           pct(p.random_sel[1], p.auto_sel[1]),
           pct(p.random_sel[2], p.auto_sel[2]), ""});
    if (r + 1 < rows.size()) t.rule();
  }
  return t.render();
}

std::string format_slowdown_summary(const std::vector<MeasuredRow>& rows) {
  std::ostringstream os;
  os << "Increase in execution time over the unloaded reference\n"
        "(the paper's headline: automatic selection roughly halves it):\n\n";
  util::TextTable t;
  t.header({"Application", "Condition", "random +%", "auto +%",
            "reduction", "paper random +%", "paper auto +%", "paper reduction"});
  const char* conds[3] = {"load", "traffic", "load+traffic"};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const MeasuredRow& m = rows[r];
    const PaperRow& p = kPaperTable1[r];
    for (int c = 0; c < 3; ++c) {
      auto cs = static_cast<std::size_t>(c);
      double inc_rand = (m.random_sel[cs].mean() - m.reference) / m.reference;
      double inc_auto = (m.auto_sel[cs].mean() - m.reference) / m.reference;
      double red = inc_rand > 0.0 ? 1.0 - inc_auto / inc_rand : 0.0;
      double p_rand = (p.random_sel[cs] - p.reference) / p.reference;
      double p_auto = (p.auto_sel[cs] - p.reference) / p.reference;
      double p_red = p_rand > 0.0 ? 1.0 - p_auto / p_rand : 0.0;
      t.row({c == 0 ? m.app : "", conds[c], util::fmt(inc_rand * 100, 0) + "%",
             util::fmt(inc_auto * 100, 0) + "%", util::fmt(red * 100, 0) + "%",
             util::fmt(p_rand * 100, 0) + "%", util::fmt(p_auto * 100, 0) + "%",
             util::fmt(p_red * 100, 0) + "%"});
    }
    if (r + 1 < rows.size()) t.rule();
  }
  os << t.render();
  return os.str();
}

}  // namespace netsel::exp
