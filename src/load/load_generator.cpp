#include "load/load_generator.hpp"

#include <stdexcept>

namespace netsel::load {

HostLoadGenerator::HostLoadGenerator(sim::NetworkSim& net, LoadGenConfig cfg,
                                     util::Rng rng)
    : net_(net), cfg_(cfg) {
  if (cfg_.mean_interarrival <= 0.0)
    throw std::invalid_argument("LoadGen: mean_interarrival must be > 0");
  if (cfg_.intensity < 0.0)
    throw std::invalid_argument("LoadGen: intensity must be >= 0");
  if (cfg_.job_weight <= 0.0)
    throw std::invalid_argument("LoadGen: job_weight must be > 0");
  demand_ = std::make_shared<util::Mixture>(
      std::make_shared<util::Exponential>(cfg_.exp_mean),
      std::make_shared<util::BoundedPareto>(cfg_.pareto_alpha, cfg_.pareto_xmin,
                                            cfg_.pareto_xmax),
      cfg_.p_exponential);
  for (topo::NodeId n : net_.topology().compute_nodes()) {
    streams_.push_back(
        NodeStream{n, rng.fork("loadgen/" +
                               std::string(net_.topology().node_name(n)))});
  }
}

void HostLoadGenerator::start() {
  if (running_ || cfg_.intensity == 0.0) return;
  running_ = true;
  ++epoch_;
  for (std::size_t i = 0; i < streams_.size(); ++i) schedule_next(i);
}

void HostLoadGenerator::stop() {
  running_ = false;
  ++epoch_;
}

double HostLoadGenerator::offered_load_per_node() const {
  if (cfg_.intensity == 0.0) return 0.0;
  return demand_->mean() / (cfg_.mean_interarrival / cfg_.intensity);
}

void HostLoadGenerator::schedule_next(std::size_t stream_index) {
  NodeStream& s = streams_[stream_index];
  double dt = s.rng.exponential_mean(cfg_.mean_interarrival / cfg_.intensity);
  std::uint64_t my_epoch = epoch_;
  net_.sim().schedule_after(dt, [this, stream_index, my_epoch] {
    if (!running_ || epoch_ != my_epoch) return;
    NodeStream& stream = streams_[stream_index];
    double demand = demand_->sample(stream.rng);
    double memory = cfg_.mean_memory_bytes > 0.0
                        ? stream.rng.exponential_mean(cfg_.mean_memory_bytes)
                        : 0.0;
    net_.host(stream.node)
        .submit_weighted(demand, cfg_.job_weight, memory,
                         sim::kBackgroundOwner);
    ++jobs_generated_;
    total_work_ += demand;
    schedule_next(stream_index);
  });
}

}  // namespace netsel::load
