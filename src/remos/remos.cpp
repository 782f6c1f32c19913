#include "remos/remos.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace netsel::remos {

namespace {
obs::Histogram& query_coverage_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "remos.query.coverage", obs::linear_buckets(0.1, 0.1, 10));
  return h;
}
obs::Histogram& query_newest_age_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "remos.query.newest_age_s", obs::exp_buckets(0.125, 2.0, 10));
  return h;
}
obs::Histogram& query_oldest_age_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "remos.query.oldest_age_s", obs::exp_buckets(0.125, 2.0, 10));
  return h;
}
obs::Counter& refresh_nonfinite() {
  static obs::Counter& c =
      obs::Registry::global().counter("remos.refresh.nonfinite");
  return c;
}
}  // namespace

void QueryQuality::note(double sample_age, double fresh_horizon) {
  horizon = fresh_horizon;
  ++sensors_total;
  if (sample_age <= fresh_horizon) ++sensors_fresh;
  newest_age = std::min(newest_age, sample_age);
  oldest_age = std::max(oldest_age, sample_age);
}

Remos::Remos(sim::NetworkSim& net, MonitorConfig cfg)
    : net_(net), monitor_(net, cfg) {}

double Remos::freshness_horizon(const QueryOptions& opt) const {
  return opt.max_sample_age < std::numeric_limits<double>::infinity()
             ? opt.max_sample_age
             : monitor_.config().history_window;
}

double Remos::forecast_sensor(const TimeSeries& ts, double fallback,
                              const QueryOptions& opt) const {
  double now = net_.sim().now();
  if (opt.quality) opt.quality->note(ts.age(now), freshness_horizon(opt));
  return opt.forecaster->estimate_bounded(ts, fallback, now,
                                          opt.max_sample_age);
}

double Remos::forecast_aux(const TimeSeries& ts, double fallback,
                           const QueryOptions& opt) const {
  return opt.forecaster->estimate_bounded(ts, fallback, net_.sim().now(),
                                          opt.max_sample_age);
}

double Remos::load_average(topo::NodeId n, const QueryOptions& opt) const {
  if (!opt.forecaster) throw std::invalid_argument("Remos: null forecaster");
  double load = forecast_sensor(monitor_.load_history(n), 0.0, opt);
  if (opt.exclude_owner != sim::kBackgroundOwner) {
    // Subtract the application's own contribution from the same measurement
    // sweeps (never a live value against a stale total: the series must be
    // time-aligned or the app's own past activity masquerades as load).
    if (const TimeSeries* own = monitor_.owner_load_history(n, opt.exclude_owner))
      load -= forecast_aux(*own, 0.0, opt);
  }
  return std::max(load, 0.0);
}

double Remos::forecast_link_used(topo::LinkId l, bool forward,
                                 const QueryOptions& opt) const {
  if (!opt.forecaster) throw std::invalid_argument("Remos: null forecaster");
  double used = forecast_sensor(monitor_.link_history(l, forward), 0.0, opt);
  if (opt.exclude_owner != sim::kBackgroundOwner) {
    if (const TimeSeries* own =
            monitor_.owner_link_history(l, forward, opt.exclude_owner))
      used -= forecast_aux(*own, 0.0, opt);
  }
  return std::max(used, 0.0);
}

NetworkSnapshot Remos::snapshot(const QueryOptions& opt) const {
  // The constructor's capacity/zero-load prior, measured over in place: a
  // sensor whose forecast equals the prior, or is non-finite, keeps it.
  NetworkSnapshot snap(net_.topology());
  refresh_snapshot(snap, opt);
  return snap;
}

std::size_t Remos::refresh_snapshot(NetworkSnapshot& snap,
                                    const QueryOptions& opt) const {
  if (!opt.forecaster) throw std::invalid_argument("Remos: null forecaster");
  const auto& g = net_.topology();
  if (&snap.graph() != &g)
    throw std::invalid_argument(
        "refresh_snapshot: snapshot views a different topology");
  const std::uint64_t before = snap.epoch();
  // The setters reject a non-finite value. A forecaster may produce one (a
  // NaN sample, or a model that diverges), so such a reading is skipped and
  // counted: the sensor keeps its previous value, and every other sensor is
  // still written.
  std::uint64_t skipped = 0;
  auto finite = [&](double v) {
    if (std::isfinite(v)) return true;
    ++skipped;
    return false;
  };
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    auto id = static_cast<topo::NodeId>(i);
    if (!g.is_compute(id)) continue;
    // Mirror set_loadavg's arithmetic so the no-change comparison is exact:
    // an unchanged reading emits no delta at all.
    double la = load_average(id, opt);
    if (la < 0.0) la = 0.0;
    const double cpu = 1.0 / (1.0 + la);  // 0 for an infinite load
    if (finite(cpu) && cpu != snap.cpu(id)) snap.set_loadavg(id, la);
    // The memory series rides on the same per-node sensor the load series
    // already accounted for: bounded, but not double-counted in quality.
    double mem = forecast_aux(monitor_.memory_history(id),
                              g.node(id).memory_bytes, opt);
    if (mem < 0.0) mem = 0.0;
    if (finite(mem) && mem != snap.free_memory(id))
      snap.set_free_memory(id, mem);
  }
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    auto id = static_cast<topo::LinkId>(l);
    if (g.link_removed(id)) continue;  // tombstoned: stays at 0 availability
    const topo::Link& lk = g.link(id);
    double avail_ab = std::max(
        lk.capacity_ab - forecast_link_used(id, true, opt), kBwFloor);
    double avail_ba = std::max(
        lk.capacity_ba - forecast_link_used(id, false, opt), kBwFloor);
    if (finite(avail_ab) && avail_ab != snap.bw_dir(id, true))
      snap.set_bw_dir(id, true, avail_ab);
    if (finite(avail_ba) && avail_ba != snap.bw_dir(id, false))
      snap.set_bw_dir(id, false, avail_ba);
  }
  if (skipped > 0) {
    refresh_nonfinite().inc(skipped);
    obs::FlightRecorder::global().record(obs::FlightKind::NonFiniteForecast,
                                         net_.sim().now(), skipped);
  }
  // Observability only: one sample per quality-carrying query, fed from
  // the same QueryQuality side channel callers already see.
  if (opt.quality && obs::enabled() && opt.quality->sensors_total > 0) {
    query_coverage_hist().observe(opt.quality->coverage());
    query_newest_age_hist().observe(opt.quality->newest_age);
    query_oldest_age_hist().observe(opt.quality->oldest_age);
  }
  return static_cast<std::size_t>(snap.epoch() - before);
}

double Remos::available_bandwidth(topo::NodeId src, topo::NodeId dst,
                                  const QueryOptions& opt) const {
  if (!opt.forecaster) throw std::invalid_argument("Remos: null forecaster");
  // +inf for src == dst: the route has no hop.
  double bw = std::numeric_limits<double>::infinity();
  for (const topo::Hop& h : net_.routes().route(src, dst)) {
    const topo::Link& lk = net_.topology().link(h.link);
    double cap = h.forward ? lk.capacity_ab : lk.capacity_ba;
    double avail = cap - forecast_link_used(h.link, h.forward, opt);
    bw = std::min(bw, std::max(avail, 0.0));
  }
  return bw;
}

double Remos::projected_flow_bandwidth(topo::NodeId src, topo::NodeId dst,
                                       const QueryOptions& opt) const {
  if (!opt.forecaster) throw std::invalid_argument("Remos: null forecaster");
  // +inf for src == dst: the route has no hop.
  double bw = std::numeric_limits<double>::infinity();
  for (const topo::Hop& h : net_.routes().route(src, dst)) {
    const topo::Link& lk = net_.topology().link(h.link);
    double cap = h.forward ? lk.capacity_ab : lk.capacity_ba;
    double residual =
        std::max(cap - forecast_link_used(h.link, h.forward, opt), 0.0);
    int n_flows = net_.network().link_flow_count(h.link, h.forward);
    double fair = cap / static_cast<double>(n_flows + 1);
    bw = std::min(bw, std::max(residual, fair));
  }
  return bw;
}

}  // namespace netsel::remos
