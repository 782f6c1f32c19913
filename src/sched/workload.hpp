#pragma once
// Open-loop workload stream for the scheduler service, sized by the
// appsim workload models (the paper's Fig. 4 testbed applications): job
// node counts come from the preset configurations and service times from
// their calibrated reference runtimes, each scaled by a uniform factor in
// [0.8, 1.2], so the stream exercises the scheduler with the same shapes
// the selection experiments run.
//
// Arrivals are Poisson (exponential inter-arrival times) with a weighted
// template mix; everything is drawn from one util::Rng, so a (seed, rate,
// mix) triple names a reproducible trace.

#include <cstdint>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace netsel::sched {

/// One job shape in the mix, with its sampling weight.
struct JobTemplate {
  JobSpec spec;
  double weight = 1.0;
};

struct WorkloadConfig {
  /// Mean arrivals per simulated second (open-loop Poisson).
  double arrival_rate = 0.1;
  std::uint64_t seed = 1;
  std::vector<JobTemplate> mix;
};

/// The paper mix: FFT (4 nodes / 48 s, bandwidth-hungry), Airshed
/// (5 nodes / 150 s, balanced) and MRI (4 nodes / 540 s, master-slave,
/// compute-leaning), weighted so short jobs dominate arrivals the way
/// interactive workloads do. Tenant names are the application names.
std::vector<JobTemplate> paper_mix();

/// Deterministic open-loop Poisson arrival stream over a template mix.
class JobStream {
 public:
  struct Arrival {
    double time = 0.0;
    JobSpec spec;
  };

  explicit JobStream(WorkloadConfig cfg);

  /// Next arrival (strictly increasing times).
  Arrival next();
  /// Convenience: submit the next `n` arrivals to a scheduler and return
  /// the time of the last one.
  double feed(SchedulerService& sched, int n);

  const WorkloadConfig& config() const { return cfg_; }

 private:
  WorkloadConfig cfg_;
  util::Rng rng_;
  double now_ = 0.0;
  double total_weight_ = 0.0;
};

}  // namespace netsel::sched
