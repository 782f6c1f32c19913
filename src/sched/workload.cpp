#include "sched/workload.hpp"

#include <stdexcept>

#include "appsim/presets.hpp"

namespace netsel::sched {

namespace {
/// Each job's duration is its template's, scaled by a factor drawn
/// uniformly from [1 - jitter, 1 + jitter].
constexpr double kDurationJitter = 0.2;
}  // namespace

std::vector<JobTemplate> paper_mix() {
  // Node counts come from the calibrated preset configs; durations are the
  // presets' documented reference runtimes on an idle testbed (see
  // appsim/presets.cpp: 32 iterations x 1.5 s, 12 steps x ~12.6 s,
  // 240 images / 3 slaves x 6.75 s).
  const appsim::LooselySyncConfig fft = appsim::fft1k();
  const appsim::LooselySyncConfig air = appsim::airshed();
  const appsim::MasterSlaveConfig mri = appsim::mri();

  JobTemplate t_fft;
  t_fft.spec.tenant = "fft";
  t_fft.spec.nodes = fft.num_nodes;
  t_fft.spec.duration = 48.0;
  t_fft.spec.criterion = select::Criterion::MaxBandwidth;
  t_fft.spec.traffic_fraction = 0.6;  // all-to-all: bandwidth-hungry
  t_fft.weight = 3.0;

  JobTemplate t_air;
  t_air.spec.tenant = "airshed";
  t_air.spec.nodes = air.num_nodes;
  t_air.spec.duration = 150.0;
  t_air.spec.criterion = select::Criterion::Balanced;
  t_air.spec.traffic_fraction = 0.4;
  t_air.weight = 2.0;

  JobTemplate t_mri;
  t_mri.spec.tenant = "mri";
  t_mri.spec.nodes = mri.num_nodes;
  t_mri.spec.duration = 540.0;
  t_mri.spec.criterion = select::Criterion::Balanced;
  t_mri.spec.cpu_priority = 2.0;  // §3.3: compute-leaning task farm
  t_mri.spec.traffic_fraction = 0.25;
  t_mri.weight = 1.0;

  return {t_fft, t_air, t_mri};
}

JobStream::JobStream(WorkloadConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed, "sched.workload") {
  if (cfg_.mix.empty()) cfg_.mix = paper_mix();
  if (!(cfg_.arrival_rate > 0.0))
    throw std::invalid_argument("WorkloadConfig: arrival_rate must be > 0");
  for (const JobTemplate& t : cfg_.mix) {
    if (t.weight < 0.0)
      throw std::invalid_argument("WorkloadConfig: negative template weight");
    total_weight_ += t.weight;
  }
  if (!(total_weight_ > 0.0))
    throw std::invalid_argument("WorkloadConfig: mix has zero total weight");
}

JobStream::Arrival JobStream::next() {
  now_ += rng_.exponential_mean(1.0 / cfg_.arrival_rate);
  // Weighted template pick (one uniform draw, cumulative scan).
  double u = rng_.uniform() * total_weight_;
  std::size_t pick = cfg_.mix.size() - 1;
  for (std::size_t i = 0; i < cfg_.mix.size(); ++i) {
    u -= cfg_.mix[i].weight;
    if (u < 0.0) {
      pick = i;
      break;
    }
  }
  Arrival a;
  a.time = now_;
  a.spec = cfg_.mix[pick].spec;
  a.spec.duration *=
      rng_.uniform(1.0 - kDurationJitter, 1.0 + kDurationJitter);
  return a;
}

double JobStream::feed(SchedulerService& sched, int n) {
  double last = sched.now();
  for (int i = 0; i < n; ++i) {
    Arrival a = next();
    sched.submit(std::move(a.spec), a.time);
    last = a.time;
  }
  return last;
}

}  // namespace netsel::sched
