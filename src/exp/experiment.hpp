#pragma once
// Experiment harness reproducing the paper's §4 methodology: applications
// executed on the (simulated) Fig. 4 testbed under combinations of the
// synthetic load and traffic generators, with nodes chosen either randomly
// or by the automatic selection procedures; each cell averaged over many
// trials ("Each measurement is the average of a number of executions
// spanning several hours").

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "api/appspec.hpp"
#include "appsim/loosely_synchronous.hpp"
#include "appsim/master_slave.hpp"
#include "load/load_generator.hpp"
#include "load/traffic_generator.hpp"
#include "remos/monitor.hpp"
#include "select/algorithms.hpp"
#include "topo/graph.hpp"
#include "util/stats.hpp"

namespace netsel::exp {

/// Node-selection policy under test.
enum class Policy {
  Random,        ///< the paper's baseline
  Static,        ///< first-m (static properties; ~= random on this testbed)
  AutoBalanced,  ///< the paper's automatic selection (Fig. 3)
  AutoCompute,   ///< compute-only criterion (§3.2)
  AutoBandwidth, ///< bandwidth-only criterion (Fig. 2)
};

const char* policy_name(Policy p);

/// An application under test: either of the two structural models.
struct AppCase {
  std::string name;
  std::variant<appsim::LooselySyncConfig, appsim::MasterSlaveConfig> config;

  int num_nodes() const;
};

/// Environment for a trial.
struct Scenario {
  bool load_on = false;
  bool traffic_on = false;
  load::LoadGenConfig load;
  load::TrafficGenConfig traffic;
  remos::MonitorConfig monitor;
  /// Simulated seconds of generator + monitor activity before selection, so
  /// host load and link traffic reach steady state and Remos has history.
  double warmup = 600.0;
  /// Abort a trial if the app has not finished by then (guards pathology).
  double max_sim_time = 100000.0;
  /// Selection options applied by the Auto* policies.
  select::SelectionOptions selection;
  /// Forecaster used for the Remos query at selection time.
  remos::ForecasterPtr forecaster;  // null -> LastValue
  /// Measurement-fault severity in [0, 1]: run_trial replaces
  /// monitor.faults with remos::FaultPlan::scaled(fault_severity), seeded
  /// per trial. The default 0 builds no injector (the no-fault path).
  double fault_severity = 0.0;
};

struct TrialResult {
  double elapsed = 0.0;
  std::vector<topo::NodeId> nodes;
  /// Rung of the service's degradation ladder the Auto* selection ran on,
  /// and the measurement coverage that chose it. Random and Static read no
  /// measurements and keep Full at coverage 1.
  api::DegradationLevel degradation = api::DegradationLevel::Full;
  double coverage = 1.0;
};

// --- Seeding scheme -------------------------------------------------------
//
// Every trial's master seed is derived by hashing, never by offsetting:
//
//   cell  = cell_seed(master, app, policy, condition)   SplitMix64 chain
//   trial = trial_seed(cell, t)                         SplitMix64(mix(cell)
//                                                         ^ odd-mult(t))
//
// The historical scheme (`seed0 + t`, cells offset by `condition * 1000`)
// meant two cells whose base seeds differed by less than the trial count
// replayed overlapping trial streams — e.g. cell A's trial 7 was bit-equal
// to cell B's trial 6. SplitMix64's full-avalanche mix makes the derived
// seeds for (cell, t) and (cell + 1, t - 1) unrelated, so every (app,
// policy, condition, trial) tuple sees an independent testbed. Both hops
// are pure functions of their inputs: the same master seed still
// reproduces the entire grid bit-for-bit, in any execution order.

/// Seed for trial index `t` of the cell whose base seed is `cell_seed`.
std::uint64_t trial_seed(std::uint64_t cell_seed, int trial);

/// Base seed for one Table-1 cell: master seed hashed with the application
/// name, the policy name, and the condition index.
std::uint64_t cell_seed(std::uint64_t master_seed, std::string_view app,
                        Policy policy, int condition);

/// Run one trial on a fresh simulated testbed seeded with `seed`. The
/// Auto* policies select on api::NodeSelectionService::degraded_snapshot
/// under the default DegradationPolicy, which at full coverage is the
/// measured snapshot itself; Random and Static select on the plain Remos
/// snapshot.
TrialResult run_trial(const AppCase& app, const Scenario& scenario,
                      Policy policy, std::uint64_t seed);

/// One experiment cell: `trials` trials of `policy` running `app` under
/// `scenario`, trial t seeded trial_seed(seed0, t).
struct Cell {
  AppCase app;
  Scenario scenario;
  Policy policy = Policy::Random;
  int trials = 0;
  std::uint64_t seed0 = 0;
};

/// Statistics for one experiment cell plus the per-trial failure record.
/// A trial that fails for an expected, data-dependent reason (infeasible
/// selection, `max_sim_time` exceeded) degrades the cell — it is counted
/// and its note kept — instead of aborting the whole grid; genuine logic
/// errors still propagate out of run_cells.
struct CellResult {
  util::OnlineStats stats;   ///< elapsed-time stats over successful trials
  int attempted = 0;         ///< trials dispatched
  int failures = 0;          ///< trials that failed (attempted - stats.count())
  /// Successful trials whose selection ran on the Smoothed / Prior rung.
  int degraded_smoothed = 0;
  int degraded_prior = 0;
  std::vector<std::string> failure_notes;  ///< first few failure messages
  /// Sum of the wall-clock seconds the cell's trials took (observability
  /// only; 0 when the obs registry is disabled). Excluded from all
  /// statistics.
  double wall_seconds = 0.0;

  double mean() const { return stats.mean(); }
  double stddev() const { return stats.stddev(); }
  double ci_halfwidth(double level = 0.95) const {
    return stats.ci_halfwidth(level);
  }
  std::size_t count() const { return stats.count(); }
};

/// Run every (cell, trial) pair as one flat list of independent jobs on
/// `threads` workers (0: serially on the calling thread in list order, < 0:
/// one worker per hardware thread) and reduce each cell in trial order, so
/// the results are bit-identical for every thread count. Each trial owns
/// its NetworkSim, Rng and SelectionContext — nothing is shared across
/// concurrent trials. With the obs registry enabled, the cells are merged
/// into exp.cell_s, exp.trials and exp.trial_failures in list order.
std::vector<CellResult> run_cells(const std::vector<Cell>& cells,
                                  int threads);

/// One cell, run serially: run_cells({{app, scenario, policy, trials,
/// seed0}}, 0).front().
CellResult run_cell(const AppCase& app, const Scenario& scenario,
                    Policy policy, int trials, std::uint64_t seed0);

/// The three applications of Table 1 on the Fig. 4 testbed.
AppCase fft_case();
AppCase airshed_case();
AppCase mri_case();

/// The scenario parameterisation used by bench_table1 (calibrated so that
/// the degradations land in the paper's regime; see EXPERIMENTS.md).
Scenario table1_scenario(bool load_on, bool traffic_on);

}  // namespace netsel::exp
