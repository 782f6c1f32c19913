#include "sim/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace netsel::sim {

namespace {
constexpr double kByteEps = 1e-6;
constexpr double kTimeEps = 1e-12;
/// A flow whose residual drain time is below this completes immediately.
/// Guards against completion deltas smaller than the floating-point ULP of
/// the current simulation time, which would stall the clock.
constexpr double kMinDt = 1e-6;
}  // namespace

Network::Network(Simulator& sim, const topo::TopologyGraph& g,
                 const topo::RoutingTable& routes, NetworkConfig cfg)
    : sim_(sim), graph_(&g), routes_(&routes), cfg_(cfg) {
  if (cfg_.hop_latency < 0.0)
    throw std::invalid_argument("Network: hop_latency must be >= 0");
  dir_capacity_.resize(g.link_count() * 2);
  dir_used_.assign(g.link_count() * 2, 0.0);
  dir_count_.assign(g.link_count() * 2, 0);
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    const topo::Link& lk = g.link(static_cast<topo::LinkId>(l));
    dir_capacity_[l * 2 + 0] = lk.capacity_ab;
    dir_capacity_[l * 2 + 1] = lk.capacity_ba;
  }
  last_settle_ = sim.now();
}

FlowId Network::start_flow(topo::NodeId src, topo::NodeId dst, double bytes,
                           OwnerTag owner,
                           std::function<void(FlowId)> on_complete) {
  if (bytes <= 0.0)
    throw std::invalid_argument("Network::start_flow: bytes must be > 0");
  Flow f;
  f.hops = routes_->route(src, dst);  // checks both ids before any change
  // Local delivery (src == dst) traverses no links.
  f.remaining = src != dst ? bytes : 0.0;
  f.owner = owner;
  f.on_complete = std::move(on_complete);
  f.latency_left = cfg_.hop_latency * static_cast<double>(f.hops.size());
  for (const topo::Hop& h : f.hops)
    f.latency_left += graph_->link(h.link).latency;
  settle();
  FlowId id = next_flow_++;
  flows_.emplace(id, std::move(f));
  recompute();
  return id;
}

double Network::cancel_flow(FlowId id) {
  settle();
  auto it = flows_.find(id);
  if (it == flows_.end())
    throw std::invalid_argument("Network::cancel_flow: unknown flow");
  double remaining = it->second.remaining;
  flows_.erase(it);
  recompute();
  return remaining;
}

double Network::flow_rate(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end())
    throw std::invalid_argument("Network::flow_rate: unknown flow");
  return it->second.rate;
}

double Network::remaining_bytes(FlowId id) {
  settle();
  auto it = flows_.find(id);
  if (it == flows_.end())
    throw std::invalid_argument("Network::remaining_bytes: unknown flow");
  recompute();  // settle moved the baseline; keep the completion event valid
  return it->second.remaining;
}

double Network::link_used_bw(topo::LinkId l, bool forward) const {
  return dir_used_[dir_index(l, forward)];
}

double Network::link_used_bw_excluding(topo::LinkId l, bool forward,
                                       OwnerTag owner) const {
  double used = 0.0;
  for (const auto& [id, f] : flows_) {
    if (f.owner == owner) continue;
    for (const topo::Hop& h : f.hops) {
      if (h.link == l && h.forward == forward) {
        used += f.rate;
        break;
      }
    }
  }
  return used;
}

double Network::link_capacity(topo::LinkId l, bool forward) const {
  return dir_capacity_[dir_index(l, forward)];
}

int Network::link_flow_count(topo::LinkId l, bool forward) const {
  return dir_count_[dir_index(l, forward)];
}

double Network::link_used_bw_by(topo::LinkId l, bool forward,
                                OwnerTag owner) const {
  return link_used_bw(l, forward) -
         link_used_bw_excluding(l, forward, owner);
}

std::vector<OwnerTag> Network::active_owners() const {
  std::vector<OwnerTag> out;
  for (const auto& [id, f] : flows_) {
    if (std::find(out.begin(), out.end(), f.owner) == out.end())
      out.push_back(f.owner);
  }
  return out;
}

void Network::settle() {
  double dt = sim_.now() - last_settle_;
  last_settle_ = sim_.now();
  if (dt <= 0.0) return;
  for (auto& [id, f] : flows_) {
    if (!f.hops.empty()) {
      f.remaining -= f.rate * dt / 8.0;
      if (f.remaining < 0.0) f.remaining = 0.0;
    }
    f.latency_left -= dt;
    if (f.latency_left < 0.0) f.latency_left = 0.0;
  }
}

void Network::recompute() {
  if (completion_event_ != kInvalidEvent) {
    sim_.cancel(completion_event_);
    completion_event_ = kInvalidEvent;
  }
  std::fill(dir_used_.begin(), dir_used_.end(), 0.0);
  std::fill(dir_count_.begin(), dir_count_.end(), 0);
  if (flows_.empty()) return;

  // --- Progressive filling (max-min fairness). ---
  // Work on index vectors for cache friendliness; the flow set is small
  // relative to the event rate, so rebuilding per recompute is cheap.
  std::vector<Flow*> fl;
  fl.reserve(flows_.size());
  for (auto& [id, f] : flows_) fl.push_back(&f);

  std::vector<double> residual = dir_capacity_;
  std::vector<int> unfrozen_on(dir_capacity_.size(), 0);
  std::vector<char> frozen(fl.size(), 0);
  std::size_t unfrozen_total = 0;
  for (std::size_t i = 0; i < fl.size(); ++i) {
    fl[i]->rate = 0.0;
    if (fl[i]->hops.empty()) {
      // Local delivery: saturates nothing, completes on latency alone.
      frozen[i] = 1;
      fl[i]->rate = std::numeric_limits<double>::infinity();
      continue;
    }
    ++unfrozen_total;
    for (const topo::Hop& h : fl[i]->hops)
      ++unfrozen_on[dir_index(h.link, h.forward)];
  }

  while (unfrozen_total > 0) {
    double inc = std::numeric_limits<double>::infinity();
    for (std::size_t d = 0; d < residual.size(); ++d) {
      if (unfrozen_on[d] > 0)
        inc = std::min(inc, residual[d] / static_cast<double>(unfrozen_on[d]));
    }
    if (!std::isfinite(inc)) break;  // defensive; cannot happen on valid routes
    if (inc < 0.0) inc = 0.0;
    // Grow every unfrozen flow by inc and drain the links they traverse.
    for (std::size_t i = 0; i < fl.size(); ++i) {
      if (frozen[i]) continue;
      fl[i]->rate += inc;
    }
    for (std::size_t d = 0; d < residual.size(); ++d)
      residual[d] -= inc * static_cast<double>(unfrozen_on[d]);
    // Freeze flows crossing any saturated direction.
    for (std::size_t i = 0; i < fl.size(); ++i) {
      if (frozen[i]) continue;
      bool saturated = false;
      for (const topo::Hop& h : fl[i]->hops) {
        std::size_t d = dir_index(h.link, h.forward);
        if (residual[d] <= dir_capacity_[d] * 1e-12 + 1e-9) {
          saturated = true;
          break;
        }
      }
      if (saturated) {
        frozen[i] = 1;
        --unfrozen_total;
        for (const topo::Hop& h : fl[i]->hops)
          --unfrozen_on[dir_index(h.link, h.forward)];
      }
    }
  }

  // Refresh utilisation cache and schedule the next completion.
  double next_dt = std::numeric_limits<double>::infinity();
  for (auto& [id, f] : flows_) {
    for (const topo::Hop& h : f.hops) {
      dir_used_[dir_index(h.link, h.forward)] += f.rate;
      dir_count_[dir_index(h.link, h.forward)] += 1;
    }
    double t_bytes = 0.0;
    if (!f.hops.empty()) {
      t_bytes = f.rate > 0.0 ? f.remaining * 8.0 / f.rate
                             : std::numeric_limits<double>::infinity();
    }
    double dt = std::max(t_bytes, f.latency_left);
    next_dt = std::min(next_dt, dt);
  }
  if (std::isfinite(next_dt)) {
    completion_event_ = sim_.schedule_after(std::max(next_dt, 0.0),
                                            [this] { on_completion_event(); });
  }
}

void Network::on_completion_event() {
  completion_event_ = kInvalidEvent;
  settle();
  std::vector<std::pair<FlowId, std::function<void(FlowId)>>> done;
  for (auto it = flows_.begin(); it != flows_.end();) {
    Flow& f = it->second;
    bool bytes_done =
        f.hops.empty() || f.remaining <= kByteEps ||
        (f.rate > 0.0 && f.remaining * 8.0 / f.rate <= kMinDt);
    if (bytes_done && f.latency_left <= kTimeEps) {
      done.emplace_back(it->first, std::move(f.on_complete));
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  recompute();
  for (auto& [id, cb] : done) {
    if (cb) cb(id);
  }
}

}  // namespace netsel::sim
