#pragma once
// Measurement-fault injection for the Remos monitor. The paper's selection
// procedures deliberately run on *measured, possibly stale* data (§2.2); a
// real SNMP sweep additionally drops polls, loses individual sensors for
// stretches of time, reports noisy counters and falls behind schedule. A
// FaultPlan describes those failure processes; a FaultInjector is the
// seeded, deterministic realisation the Monitor consults on every sweep.
//
// Determinism contract: a given (plan, seed) pair replays the same fault
// sequence sweep-for-sweep, and a plan with no faults configured creates no
// injector at all — the no-fault measurement path is bit-identical to a
// build without this layer.

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace netsel::remos {

/// Stochastic description of measurement failures, applied per sweep.
/// Per-sensor outages follow a two-state Markov chain advanced once per
/// sweep: an up sensor fails with p_*_fail, a down sensor recovers with
/// p_*_repair — so mean outage length is 1/p_repair sweeps and stationary
/// availability is p_repair / (p_fail + p_repair).
struct FaultPlan {
  std::uint64_t seed = 0;

  /// Probability a whole sweep is dropped (poller missed its slot; nothing
  /// is recorded anywhere, histories age by one interval).
  double p_sweep_drop = 0.0;

  /// Probability a sweep is late, stretching the gap to the next sweep by
  /// Uniform(0, max_sweep_delay] seconds.
  double p_sweep_delay = 0.0;
  double max_sweep_delay = 0.0;

  /// Per-node sensor outage chain (a down node records neither load,
  /// memory nor owner-attributed series that sweep).
  double p_node_fail = 0.0;
  double p_node_repair = 1.0;

  /// Per-link-direction sensor outage chain.
  double p_link_fail = 0.0;
  double p_link_repair = 1.0;

  /// Multiplicative measurement noise: recorded = true * exp(sigma * N(0,1)).
  /// Lognormal keeps measurements non-negative and leaves exact zeros exact
  /// (an idle sensor does not invent load).
  double noise_sigma = 0.0;

  /// True when any fault process is active; false means the Monitor skips
  /// injector construction entirely.
  bool any() const;
  /// Throws std::invalid_argument on out-of-range probabilities and on a
  /// NaN or infinite knob.
  void validate() const;

  /// One-knob plan for sweeps: severity 0 is fault-free, severity 1 is a
  /// badly broken measurement plane (≈25% dropped sweeps, sensors down more
  /// than half the time in window-length bursts, 25% noise, late sweeps up
  /// to 2 intervals). Used by exp::run_trial (Scenario::fault_severity);
  /// fault probabilities interpolate linearly in severity. Throws
  /// std::invalid_argument unless severity is in [0, 1] and poll_interval
  /// is finite.
  static FaultPlan scaled(double severity, std::uint64_t seed,
                          double poll_interval = 2.0);
};

/// Seeded realisation of a FaultPlan over a fixed sensor population.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, std::size_t node_count,
                std::size_t link_dir_count);

  /// Advance every outage chain one sweep and draw the sweep-drop outcome.
  /// Call exactly once per sweep, before reading any sensor state.
  void begin_sweep();
  /// True when the sweep begun last is dropped wholesale.
  bool sweep_dropped() const { return sweep_dropped_; }

  bool node_down(std::size_t node) const;
  bool link_down(std::size_t link_dir) const;

  /// Multiplicative noise on one measured value (draws iff sigma > 0).
  double perturb(double value);
  /// Extra delay before the next sweep (draws iff p_sweep_delay > 0).
  double draw_delay();

  const FaultPlan& plan() const { return plan_; }
  std::uint64_t sweeps_begun() const { return sweeps_; }

 private:
  void advance_chain(std::vector<char>& down, double p_fail, double p_repair);

  FaultPlan plan_;
  util::Rng rng_;
  bool sweep_dropped_ = false;
  std::uint64_t sweeps_ = 0;
  std::vector<char> node_down_;  ///< per node id
  std::vector<char> link_down_;  ///< per link direction (link * 2 + dir)
};

}  // namespace netsel::remos
