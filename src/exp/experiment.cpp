#include "exp/experiment.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <utility>

#include "api/service.hpp"
#include "appsim/presets.hpp"
#include "obs/metrics.hpp"
#include "remos/remos.hpp"
#include "select/context.hpp"
#include "topo/generators.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace netsel::exp {

std::uint64_t trial_seed(std::uint64_t cell_seed, int trial) {
  // Avalanche the cell seed first so nearby cell seeds decorrelate, then
  // fold in the trial index through an odd multiplier (bijective mod 2^64)
  // and avalanche again. trial_seed(s, t) == trial_seed(s + 1, t - 1) only
  // by 64-bit accident, unlike the additive scheme it replaces.
  std::uint64_t h = util::SplitMix64(cell_seed).next();
  h ^= (static_cast<std::uint64_t>(trial) + 1) * 0xbf58476d1ce4e5b9ULL;
  return util::SplitMix64(h).next();
}

std::uint64_t cell_seed(std::uint64_t master_seed, std::string_view app,
                        Policy policy, int condition) {
  std::uint64_t h = util::SplitMix64(master_seed).next();
  h = util::SplitMix64(h ^ util::hash_name(app)).next();
  h = util::SplitMix64(h ^ util::hash_name(policy_name(policy))).next();
  h = util::SplitMix64(h ^ (static_cast<std::uint64_t>(condition) + 1)).next();
  return h;
}

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::Random: return "random";
    case Policy::Static: return "static";
    case Policy::AutoBalanced: return "auto-balanced";
    case Policy::AutoCompute: return "auto-compute";
    case Policy::AutoBandwidth: return "auto-bandwidth";
  }
  return "?";
}

int AppCase::num_nodes() const {
  if (const auto* ls = std::get_if<appsim::LooselySyncConfig>(&config))
    return ls->num_nodes;
  return std::get<appsim::MasterSlaveConfig>(config).num_nodes;
}

TrialResult run_trial(const AppCase& app, const Scenario& scenario,
                      Policy policy, std::uint64_t seed) {
  sim::NetworkSim net(topo::testbed());
  util::Rng master(seed);

  load::HostLoadGenerator loadgen(net, scenario.load, master.fork("load"));
  load::TrafficGenerator trafficgen(net, scenario.traffic,
                                    master.fork("traffic"));
  remos::MonitorConfig mcfg = scenario.monitor;
  // Per-trial fault realisation: severity 0 leaves the plan empty, so the
  // monitor builds no injector.
  mcfg.faults = remos::FaultPlan::scaled(
      scenario.fault_severity,
      util::SplitMix64(seed ^ util::hash_name("fault-plan")).next(),
      mcfg.poll_interval);
  remos::Remos remos(net, mcfg);

  if (scenario.load_on) loadgen.start();
  if (scenario.traffic_on) trafficgen.start();
  remos.start();
  net.sim().run_until(scenario.warmup);

  // --- Node selection. ---
  remos::QueryOptions q;
  if (scenario.forecaster) q.forecaster = scenario.forecaster;
  // Baselines ignore measured values (they only need connectivity) and
  // consult no sensor, so their coverage reads 1. The auto policies walk
  // the degradation ladder: missing measurements degrade the selection
  // instead of failing it.
  TrialResult result;
  remos::QueryQuality quality;
  remos::NetworkSnapshot snap =
      policy == Policy::Random || policy == Policy::Static
          ? remos.snapshot(q)
          : api::NodeSelectionService(remos).degraded_snapshot(
                q, {}, result.degradation, quality);
  result.coverage = quality.coverage();
  select::SelectionContext ctx(snap);
  select::SelectionOptions sel = scenario.selection;
  sel.num_nodes = app.num_nodes();

  select::SelectionResult chosen;
  switch (policy) {
    case Policy::Random: {
      util::Rng prng = master.fork("placement");
      chosen = select::select_random(ctx, sel, prng);
      break;
    }
    case Policy::Static:
      chosen = select::select_static(ctx, sel);
      break;
    case Policy::AutoBalanced:
      chosen = select::select_balanced(ctx, sel);
      break;
    case Policy::AutoCompute:
      chosen = select::select_max_compute(ctx, sel);
      break;
    case Policy::AutoBandwidth:
      chosen = select::select_max_bandwidth(ctx, sel);
      break;
  }
  if (!chosen.feasible)
    throw std::runtime_error("run_trial: selection infeasible: " + chosen.note);

  // --- Execute the application. ---
  std::unique_ptr<appsim::Application> application;
  if (const auto* ls = std::get_if<appsim::LooselySyncConfig>(&app.config)) {
    application =
        std::make_unique<appsim::LooselySynchronousApp>(net, *ls, app.name);
  } else {
    application = std::make_unique<appsim::MasterSlaveApp>(
        net, std::get<appsim::MasterSlaveConfig>(app.config), app.name);
  }
  application->start(chosen.nodes);
  while (!application->finished()) {
    if (net.sim().now() > scenario.max_sim_time)
      throw std::runtime_error("run_trial: exceeded max_sim_time");
    if (!net.sim().step())
      throw std::logic_error("run_trial: event queue drained mid-run");
  }

  result.elapsed = application->elapsed();
  result.nodes = std::move(chosen.nodes);
  return result;
}

namespace {
/// Outcome slot for one trial, written by exactly one job.
struct TrialSlot {
  bool ok = false;
  double elapsed = 0.0;
  api::DegradationLevel level = api::DegradationLevel::Full;
  std::string error;
  double wall_seconds = 0.0;
};
constexpr std::size_t kMaxFailureNotes = 8;
}  // namespace

std::vector<CellResult> run_cells(const std::vector<Cell>& cells,
                                  int threads) {
  // The flat job list: (cell, trial) pairs, cell-major, so reducing the
  // slots in list order reduces every cell in trial order.
  std::vector<std::pair<std::size_t, int>> jobs;
  for (std::size_t c = 0; c < cells.size(); ++c)
    for (int t = 0; t < cells[c].trials; ++t) jobs.emplace_back(c, t);
  const bool observing = obs::enabled();
  std::vector<TrialSlot> slots(jobs.size());
  auto one = [&](std::size_t j) {
    const Cell& cell = cells[jobs[j].first];
    TrialSlot& slot = slots[j];
    const auto t0 = observing ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
    // Trial-granularity span (never per-event): app/policy and the trial's
    // simulated end time ride along into the Chrome trace.
    obs::Span span("exp.trial", "exp");
    span.arg("app", cell.app.name);
    span.arg("policy", policy_name(cell.policy));
    try {
      TrialResult r = run_trial(cell.app, cell.scenario, cell.policy,
                                trial_seed(cell.seed0, jobs[j].second));
      slot.elapsed = r.elapsed;
      slot.level = r.degradation;
      slot.ok = true;
      if (span.active()) span.arg("ok", "true");
    } catch (const std::runtime_error& e) {
      // Expected, data-dependent failures (infeasible selection under the
      // trial's load, max_sim_time exceeded): degrade the cell, don't kill
      // the grid. std::logic_error and everything else propagate — via
      // parallel_for's deterministic lowest-index rethrow.
      slot.error = e.what();
      if (span.active()) span.arg("ok", "false");
    }
    if (observing)
      slot.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  };
  util::ThreadPool pool(threads);
  util::parallel_for(pool, jobs.size(), one);

  // Reduce in list order, never completion order: the statistics are
  // bit-identical to the serial run for any worker count.
  std::vector<CellResult> out(cells.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const TrialSlot& slot = slots[j];
    CellResult& cell = out[jobs[j].first];
    ++cell.attempted;
    cell.wall_seconds += slot.wall_seconds;
    if (slot.ok) {
      cell.stats.add(slot.elapsed);
      if (slot.level == api::DegradationLevel::Smoothed) ++cell.degraded_smoothed;
      if (slot.level == api::DegradationLevel::Prior) ++cell.degraded_prior;
    } else {
      ++cell.failures;
      if (cell.failure_notes.size() < kMaxFailureNotes)
        cell.failure_notes.push_back(slot.error);
    }
  }
  // Grid-level observability, merged in cell order after the (possibly
  // pooled) run, so the registry sees the same observation sequence for
  // every worker count (float sums are order-sensitive).
  if (observing) {
    obs::Histogram& cell_s = obs::Registry::global().histogram(
        "exp.cell_s", obs::exp_buckets(0.01, 2.0, 14));
    obs::Counter& trials = obs::Registry::global().counter("exp.trials");
    obs::Counter& failures =
        obs::Registry::global().counter("exp.trial_failures");
    for (const CellResult& cell : out) {
      cell_s.observe(cell.wall_seconds);
      trials.inc(static_cast<std::uint64_t>(cell.attempted));
      failures.inc(static_cast<std::uint64_t>(cell.failures));
    }
  }
  return out;
}

CellResult run_cell(const AppCase& app, const Scenario& scenario,
                    Policy policy, int trials, std::uint64_t seed0) {
  return run_cells({Cell{app, scenario, policy, trials, seed0}}, 0).front();
}

AppCase fft_case() { return AppCase{"FFT (1K)", appsim::fft1k()}; }
AppCase airshed_case() { return AppCase{"Airshed", appsim::airshed()}; }
AppCase mri_case() { return AppCase{"MRI", appsim::mri()}; }

Scenario table1_scenario(bool load_on, bool traffic_on) {
  Scenario s;
  s.load_on = load_on;
  s.traffic_on = traffic_on;
  // Calibrated generator settings; derivation in EXPERIMENTS.md. The heavy
  // Pareto tail (jobs up to an hour) and elephant transfers are what make
  // current measurements predictive — the paper's §4.2 rationale.
  s.load.mean_interarrival = 65.0;
  s.load.p_exponential = 0.35;
  s.load.exp_mean = 5.0;
  s.load.pareto_alpha = 1.1;
  s.load.pareto_xmin = 10.0;
  s.load.pareto_xmax = 3600.0;
  s.traffic.mean_interarrival = 0.5;
  s.traffic.size_mean_bytes = 16e6;
  s.traffic.size_sigma = 2.0;
  s.monitor.poll_interval = 2.0;
  s.monitor.history_window = 30.0;
  s.warmup = 600.0;
  return s;
}

}  // namespace netsel::exp
