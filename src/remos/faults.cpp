#include "remos/faults.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace netsel::remos {

bool FaultPlan::any() const {
  return p_sweep_drop > 0.0 || p_sweep_delay > 0.0 || p_node_fail > 0.0 ||
         p_link_fail > 0.0 || noise_sigma > 0.0;
}

void FaultPlan::validate() const {
  auto prob = [](double p, const char* what) {
    if (!(p >= 0.0 && p <= 1.0))  // also rejects NaN
      throw std::invalid_argument(std::string("FaultPlan: ") + what +
                                  " must be in [0,1]");
  };
  prob(p_sweep_drop, "p_sweep_drop");
  prob(p_sweep_delay, "p_sweep_delay");
  prob(p_node_fail, "p_node_fail");
  prob(p_node_repair, "p_node_repair");
  prob(p_link_fail, "p_link_fail");
  prob(p_link_repair, "p_link_repair");
  if (!std::isfinite(noise_sigma) || noise_sigma < 0.0)
    throw std::invalid_argument("FaultPlan: noise_sigma must be finite and >= 0");
  if (!std::isfinite(max_sweep_delay))
    throw std::invalid_argument("FaultPlan: max_sweep_delay must be finite");
  if (p_sweep_delay > 0.0 && max_sweep_delay <= 0.0)
    throw std::invalid_argument(
        "FaultPlan: p_sweep_delay > 0 needs max_sweep_delay > 0");
  if ((p_node_fail > 0.0 && p_node_repair <= 0.0) ||
      (p_link_fail > 0.0 && p_link_repair <= 0.0))
    throw std::invalid_argument(
        "FaultPlan: outages need a positive repair probability");
}

FaultPlan FaultPlan::scaled(double severity, std::uint64_t seed,
                            double poll_interval) {
  if (!(severity >= 0.0 && severity <= 1.0))  // also rejects NaN
    throw std::invalid_argument("FaultPlan::scaled: severity must be in [0,1]");
  if (!std::isfinite(poll_interval))
    throw std::invalid_argument("FaultPlan::scaled: poll_interval must be finite");
  FaultPlan p;
  p.seed = seed;
  if (severity == 0.0) return p;  // any() == false: no injector at all
  p.p_sweep_drop = 0.25 * severity;
  p.p_sweep_delay = 0.30 * severity;
  p.max_sweep_delay = 2.0 * poll_interval;
  // Long outage bursts (mean 1/p_repair = 12.5 sweeps ≈ 25 s at the default
  // 2 s interval): comparable to the default 30 s history window, so at high
  // severity a real fraction of sensors has no sample left inside the
  // freshness horizon and the service's degradation ladder engages.
  // Stationary availability p_r/(p_f+p_r): ~0.89 at 0.1 severity, ~0.44 at 1.
  p.p_node_fail = 0.10 * severity;
  p.p_node_repair = 0.08;
  p.p_link_fail = 0.10 * severity;
  p.p_link_repair = 0.08;
  p.noise_sigma = 0.25 * severity;
  return p;
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::size_t node_count,
                             std::size_t link_dir_count)
    : plan_(plan),
      rng_(plan.seed, "remos-faults"),
      node_down_(node_count, 0),
      link_down_(link_dir_count, 0) {
  plan_.validate();
}

void FaultInjector::advance_chain(std::vector<char>& down, double p_fail,
                                  double p_repair) {
  if (p_fail <= 0.0) return;
  // Exactly one draw per sensor per sweep keeps the stream length (and so
  // every later draw) independent of the realised up/down pattern.
  for (char& d : down) {
    bool flip = rng_.bernoulli(d ? p_repair : p_fail);
    if (flip) d = d ? 0 : 1;
  }
}

void FaultInjector::begin_sweep() {
  ++sweeps_;
  sweep_dropped_ = plan_.p_sweep_drop > 0.0 && rng_.bernoulli(plan_.p_sweep_drop);
  // Outage processes run on the sensors, not in the poller: they advance
  // even through dropped sweeps.
  advance_chain(node_down_, plan_.p_node_fail, plan_.p_node_repair);
  advance_chain(link_down_, plan_.p_link_fail, plan_.p_link_repair);
}

bool FaultInjector::node_down(std::size_t node) const {
  return node_down_.at(node) != 0;
}

bool FaultInjector::link_down(std::size_t link_dir) const {
  return link_down_.at(link_dir) != 0;
}

double FaultInjector::perturb(double value) {
  if (plan_.noise_sigma <= 0.0) return value;
  return value * std::exp(plan_.noise_sigma * rng_.normal(0.0, 1.0));
}

double FaultInjector::draw_delay() {
  if (plan_.p_sweep_delay <= 0.0) return 0.0;
  if (!rng_.bernoulli(plan_.p_sweep_delay)) return 0.0;
  return rng_.uniform(0.0, plan_.max_sweep_delay);
}

}  // namespace netsel::remos
