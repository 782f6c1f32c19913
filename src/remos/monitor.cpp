#include "remos/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace netsel::remos {

namespace {
obs::Counter& sweeps_counter() {
  static obs::Counter& c = obs::Registry::global().counter("remos.sweeps");
  return c;
}
obs::Counter& sweeps_dropped_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("remos.sweeps_dropped");
  return c;
}
obs::Counter& samples_dropped_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("remos.samples_dropped");
  return c;
}
/// Up -> down edges per sensor (a 5-sweep outage counts once, not 5 times).
obs::Counter& outage_transitions_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("remos.sensor_outage_transitions");
  return c;
}
obs::Histogram& sweep_seconds_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "remos.sweep_s", obs::exp_buckets(1e-7, 4.0, 12));
  return h;
}
}  // namespace

Monitor::Monitor(sim::NetworkSim& net, MonitorConfig cfg)
    : net_(net), cfg_(cfg) {
  // A NaN fails both comparisons below, and a NaN poll interval would
  // schedule every poll at NaN, so run_until would never return.
  if (!std::isfinite(cfg_.poll_interval) ||
      !std::isfinite(cfg_.history_window))
    throw std::invalid_argument("Monitor: poll_interval and history_window "
                                "must be finite");
  if (cfg_.poll_interval <= 0.0)
    throw std::invalid_argument("Monitor: poll_interval must be > 0");
  if (cfg_.history_window < cfg_.poll_interval)
    throw std::invalid_argument("Monitor: window must cover >= one poll");
  cfg_.faults.validate();
  load_hist_.assign(net.topology().node_count(), TimeSeries(cfg_.history_window));
  memory_hist_.assign(net.topology().node_count(),
                      TimeSeries(cfg_.history_window));
  link_hist_.assign(net.topology().link_count() * 2,
                    TimeSeries(cfg_.history_window));
  owner_load_hist_.resize(net.topology().node_count());
  owner_link_hist_.resize(net.topology().link_count() * 2);
  if (cfg_.faults.any())
    injector_ = std::make_unique<FaultInjector>(
        cfg_.faults, net.topology().node_count(),
        net.topology().link_count() * 2);
}

void Monitor::start() {
  if (running_) return;
  running_ = true;
  ++epoch_;
  poll_once();
  schedule_next();
}

void Monitor::stop() {
  running_ = false;
  ++epoch_;
}

void Monitor::poll_once() {
  obs::ScopedTimer sweep_timer(sweep_seconds_hist());
  double now = net_.sim().now();
  const auto& g = net_.topology();

  // Observability-only outage-edge tracking. Lazily sized so the no-fault
  // path never allocates. Always tracked when an injector is active (not
  // gated on obs::enabled()): the flight recorder's post-mortem value is
  // exactly the runs nobody instrumented. The registry counter itself still
  // no-ops while disabled.
  const bool track_outages = injector_ != nullptr;
  if (track_outages && obs_sensor_down_.empty())
    obs_sensor_down_.assign(g.node_count() + g.link_count() * 2, 0);
  auto note_sensor = [this, track_outages, now](std::size_t sensor,
                                                bool down) {
    if (!track_outages) return;
    if (down && !obs_sensor_down_[sensor]) {
      outage_transitions_counter().inc();
      obs::FlightRecorder::global().record(obs::FlightKind::SensorOutage, now,
                                           sensor);
    }
    obs_sensor_down_[sensor] = down ? 1 : 0;
  };

  if (injector_) {
    injector_->begin_sweep();
    if (injector_->sweep_dropped()) {
      // Poller missed its slot: nothing is recorded anywhere; every history
      // simply ages by one interval (queries see staler samples).
      ++sweeps_dropped_;
      sweeps_dropped_counter().inc();
      obs::FlightRecorder::global().record(obs::FlightKind::SweepDrop, now,
                                           sweeps_dropped_, polls_);
      return;
    }
  }
  auto measure = [this](double v) {
    return injector_ ? injector_->perturb(v) : v;
  };

  // Discover application owners active anywhere on the testbed; once seen,
  // an owner is recorded on every sweep (zeros included) so its series
  // decays correctly after it goes quiet or migrates away.
  auto note_owner = [this](sim::OwnerTag o) {
    if (o == sim::kBackgroundOwner) return;
    if (std::find(seen_owners_.begin(), seen_owners_.end(), o) ==
        seen_owners_.end())
      seen_owners_.push_back(o);
  };
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    auto id = static_cast<topo::NodeId>(i);
    if (!g.is_compute(id)) continue;
    for (sim::OwnerTag o : net_.host(id).tracked_owners()) note_owner(o);
  }
  for (sim::OwnerTag o : net_.network().active_owners()) note_owner(o);

  auto owner_series = [this](std::map<sim::OwnerTag, TimeSeries>& m,
                             sim::OwnerTag o) -> TimeSeries& {
    auto it = m.find(o);
    if (it == m.end())
      it = m.emplace(o, TimeSeries(cfg_.history_window)).first;
    return it->second;
  };

  for (std::size_t i = 0; i < g.node_count(); ++i) {
    auto id = static_cast<topo::NodeId>(i);
    if (!g.is_compute(id)) continue;
    if (injector_ && injector_->node_down(i)) {
      // The node's SNMP agent is unreachable: every series it feeds (load,
      // memory, owner attribution) stalls together this sweep.
      ++samples_dropped_;
      samples_dropped_counter().inc();
      note_sensor(i, true);
      continue;
    }
    note_sensor(i, false);
    const sim::Host& h = net_.host(id);
    load_hist_[i].record(now, measure(h.load_average()));
    double total_mem = g.node(id).memory_bytes;
    memory_hist_[i].record(
        now, measure(std::max(total_mem - h.memory_in_use(), 0.0)));
    for (sim::OwnerTag o : seen_owners_)
      owner_series(owner_load_hist_[i], o)
          .record(now, measure(h.owner_load_average(o)));
  }
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    auto id = static_cast<topo::LinkId>(l);
    for (bool fwd : {true, false}) {
      std::size_t d = l * 2 + (fwd ? 0 : 1);
      if (injector_ && injector_->link_down(d)) {
        ++samples_dropped_;
        samples_dropped_counter().inc();
        note_sensor(g.node_count() + d, true);
        continue;
      }
      note_sensor(g.node_count() + d, false);
      link_hist_[d].record(now, measure(net_.network().link_used_bw(id, fwd)));
      for (sim::OwnerTag o : seen_owners_)
        owner_series(owner_link_hist_[d], o)
            .record(now, measure(net_.network().link_used_bw_by(id, fwd, o)));
    }
  }
  ++polls_;
  sweeps_counter().inc();
}

const TimeSeries* Monitor::owner_load_history(topo::NodeId n,
                                              sim::OwnerTag o) const {
  const auto& m = owner_load_hist_.at(static_cast<std::size_t>(n));
  auto it = m.find(o);
  return it == m.end() ? nullptr : &it->second;
}

const TimeSeries* Monitor::owner_link_history(topo::LinkId l, bool forward,
                                              sim::OwnerTag o) const {
  const auto& m =
      owner_link_hist_.at(static_cast<std::size_t>(l) * 2 + (forward ? 0 : 1));
  auto it = m.find(o);
  return it == m.end() ? nullptr : &it->second;
}

void Monitor::schedule_next() {
  std::uint64_t my_epoch = epoch_;
  // A late sweep stretches the gap to the next poll; the cadence re-anchors
  // afterwards, so one slow sweep does not shift every later one.
  double dt = cfg_.poll_interval + (injector_ ? injector_->draw_delay() : 0.0);
  net_.sim().schedule_after(dt, [this, my_epoch] {
    if (!running_ || epoch_ != my_epoch) return;
    poll_once();
    schedule_next();
  });
}

const TimeSeries& Monitor::load_history(topo::NodeId n) const {
  if (!net_.topology().is_compute(n))
    throw std::invalid_argument("Monitor: load history of a network node");
  return load_hist_.at(static_cast<std::size_t>(n));
}

const TimeSeries& Monitor::memory_history(topo::NodeId n) const {
  if (!net_.topology().is_compute(n))
    throw std::invalid_argument("Monitor: memory history of a network node");
  return memory_hist_.at(static_cast<std::size_t>(n));
}

const TimeSeries& Monitor::link_history(topo::LinkId l, bool forward) const {
  return link_hist_.at(static_cast<std::size_t>(l) * 2 + (forward ? 0 : 1));
}

}  // namespace netsel::remos
