#include "exp/faults.hpp"

#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace netsel::exp {

std::vector<FaultRow> run_fault_grid(const FaultGridOptions& opt) {
  if (opt.trials < 1)
    throw std::invalid_argument("run_fault_grid: trials must be >= 1");
  const Scenario scenario = table1_scenario(true, true);
  const std::size_t cells_per_row = 1 + opt.criteria.size();

  std::vector<FaultRow> rows(opt.severities.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    rows[r].severity = opt.severities[r];
    rows[r].autos.resize(opt.criteria.size());
  }
  std::unique_ptr<util::ThreadPool> pool;
  if (opt.threads != 0) pool = std::make_unique<util::ThreadPool>(opt.threads);

  // Flat task list, one pre-addressed slot per cell (same bit-identical
  // dispatch scheme as run_table1). Seeds hash the severity index into the
  // condition so every (severity, policy) cell is an independent stream.
  auto run_one = [&](std::size_t j) {
    std::size_t r = j / cells_per_row;
    std::size_t k = j % cells_per_row;
    FaultRow& row = rows[r];
    Policy policy = k == 0 ? Policy::Random : opt.criteria[k - 1];
    CellResult& slot = k == 0 ? row.random : row.autos[k - 1];
    Scenario sc = scenario;
    sc.fault_severity = row.severity;
    slot = run_cell(
        opt.app, sc, policy, opt.trials,
        cell_seed(opt.seed, opt.app.name, policy, 1000 + static_cast<int>(r)),
        pool.get());
    if (opt.verbose)
      std::fprintf(stderr,
                   "  severity %.2f %-14s mean=%7.1fs (n=%zu, %d failed, "
                   "%d smoothed, %d prior)\n",
                   row.severity, policy_name(policy), slot.stats.mean(),
                   slot.stats.count(), slot.failures,
                   slot.degraded_smoothed, slot.degraded_prior);
  };
  const std::size_t tasks = rows.size() * cells_per_row;
  if (pool) {
    util::parallel_for(*pool, tasks, run_one);
  } else {
    for (std::size_t j = 0; j < tasks; ++j) run_one(j);
  }

  // Same post-loop, index-order observability merge as run_table1 (the
  // registry sees one deterministic observation sequence per grid).
  if (obs::enabled()) {
    obs::Histogram& cell_s = obs::Registry::global().histogram(
        "exp.cell_s", obs::exp_buckets(0.01, 2.0, 14));
    obs::Counter& trials = obs::Registry::global().counter("exp.trials");
    obs::Counter& failures =
        obs::Registry::global().counter("exp.trial_failures");
    auto merge = [&](const CellResult& c) {
      cell_s.observe(c.wall_seconds);
      trials.inc(static_cast<std::uint64_t>(c.attempted));
      failures.inc(static_cast<std::uint64_t>(c.failures));
    };
    for (const FaultRow& row : rows) {
      merge(row.random);
      for (const CellResult& c : row.autos) merge(c);
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
