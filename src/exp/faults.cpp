#include "exp/faults.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/table.hpp"

namespace netsel::exp {

std::vector<FaultRow> run_fault_grid(const FaultGridOptions& opt) {
  if (opt.trials < 1)
    throw std::invalid_argument("run_fault_grid: trials must be >= 1");
  // Per severity: the random baseline, then one auto cell per criterion.
  // Seeds hash the severity index into the condition so every (severity,
  // policy) cell is an independent stream.
  std::vector<Cell> cells;
  for (std::size_t r = 0; r < opt.severities.size(); ++r) {
    Scenario sc = table1_scenario(true, true);
    sc.fault_severity = opt.severities[r];
    for (std::size_t k = 0; k <= opt.criteria.size(); ++k) {
      const Policy policy = k == 0 ? Policy::Random : opt.criteria[k - 1];
      cells.push_back({opt.app, sc, policy, opt.trials,
                       cell_seed(opt.seed, opt.app.name, policy,
                                 1000 + static_cast<int>(r))});
    }
  }
  std::vector<CellResult> results = run_cells(cells, opt.threads);

  std::vector<FaultRow> rows(opt.severities.size());
  std::size_t next = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    rows[r].severity = opt.severities[r];
    for (std::size_t k = 0; k <= opt.criteria.size(); ++k) {
      const Policy policy = cells[next].policy;
      CellResult& slot = k == 0 ? rows[r].random
                                : rows[r].autos.emplace_back();
      slot = std::move(results[next++]);
      if (opt.verbose)
        std::fprintf(stderr,
                     "  severity %.2f %-14s mean=%7.1fs (n=%zu, %d failed, "
                     "%d smoothed, %d prior)\n",
                     rows[r].severity, policy_name(policy), slot.stats.mean(),
                     slot.stats.count(), slot.failures,
                     slot.degraded_smoothed, slot.degraded_prior);
    }
  }
  return rows;
}

std::string format_fault_grid(const std::vector<FaultRow>& rows,
                              const FaultGridOptions& opt) {
  util::TextTable t;
  t.header({"Severity", "Policy", "Mean (s)", "CI95", "vs random", "n",
            "failed", "smoothed", "prior"});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const FaultRow& row = rows[r];
    double baseline = row.random.stats.mean();
    auto add = [&](const char* name, const CellResult& c, bool is_random) {
      double mean = c.stats.mean();
      t.row({is_random ? util::fmt(row.severity, 2) : "", name,
             util::fmt(mean, 1), util::fmt(c.ci_halfwidth(0.95), 1),
             is_random ? "1.00"
                       : (baseline > 0.0 ? util::fmt(mean / baseline, 2) : "-"),
             std::to_string(c.count()), std::to_string(c.failures),
             std::to_string(c.degraded_smoothed),
             std::to_string(c.degraded_prior)});
    };
    add(policy_name(Policy::Random), row.random, true);
    for (std::size_t k = 0; k < row.autos.size(); ++k)
      add(policy_name(opt.criteria[k]), row.autos[k], false);
    if (r + 1 < rows.size()) t.rule();
  }
  std::ostringstream os;
  os << "Measurement-fault sweep — " << opt.app.name << ", load+traffic, "
     << opt.trials << " trials/cell, seed " << opt.seed << "\n"
     << "(vs random < 1.00 means automatic selection still beats the "
        "baseline under that fault severity)\n\n"
     << t.render();
  return os.str();
}

std::string fault_grid_csv(const std::vector<FaultRow>& rows,
                           const FaultGridOptions& opt) {
  std::ostringstream os;
  os << "severity,policy,mean_s,ci95,trials,failures,degraded_smoothed,"
        "degraded_prior\n";
  auto line = [&](double severity, Policy p, const CellResult& c) {
    os << severity << ',' << policy_name(p) << ',' << c.stats.mean() << ','
       << c.ci_halfwidth(0.95) << ',' << c.count() << ',' << c.failures << ','
       << c.degraded_smoothed << ',' << c.degraded_prior << '\n';
  };
  for (const FaultRow& row : rows) {
    line(row.severity, Policy::Random, row.random);
    for (std::size_t k = 0; k < row.autos.size(); ++k)
      line(row.severity, opt.criteria[k], row.autos[k]);
  }
  return os.str();
}

}  // namespace netsel::exp
