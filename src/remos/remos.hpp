#pragma once
// The Remos query API (paper §2.2): network information at two levels of
// abstraction — *flow queries* (available bandwidth between node pairs,
// accounting for sharing) and the *logical network topology* (the graph plus
// dynamic load/availability annotations: a NetworkSnapshot).

#include <cstddef>
#include <limits>
#include <memory>

#include "remos/history.hpp"
#include "remos/monitor.hpp"
#include "remos/snapshot.hpp"
#include "sim/network_sim.hpp"

namespace netsel::remos {

/// Snapshot bandwidth floor: selection needs strictly positive availability
/// so that fully saturated links still order sensibly below lightly used
/// ones (1 kbps on a >= 1 Mbps link is effectively "unusable").
inline constexpr double kBwFloor = 1e3;

/// Side-channel describing how well-founded a query answer is: how many of
/// the consulted sensors (one per compute node's load series, one per link
/// direction) had a sample within the freshness horizon, and how old the
/// consulted samples were. Callers use it to tell a fresh answer from a
/// fallback-dominated guess and degrade deliberately (see
/// api::DegradationPolicy) instead of trusting stale numbers.
struct QueryQuality {
  std::size_t sensors_total = 0;
  std::size_t sensors_fresh = 0;
  /// Age of the freshest / stalest newest-sample over consulted sensors;
  /// +infinity when a sensor has no samples at all (never-polled monitor).
  double newest_age = std::numeric_limits<double>::infinity();
  double oldest_age = 0.0;
  /// Horizon used to classify fresh vs stale (seconds).
  double horizon = 0.0;

  /// Fraction of consulted sensors with a fresh sample; 1 when none were
  /// consulted (a query that needed no measurements is not degraded).
  double coverage() const {
    return sensors_total == 0
               ? 1.0
               : static_cast<double>(sensors_fresh) /
                     static_cast<double>(sensors_total);
  }
  void note(double sample_age, double fresh_horizon);
};

struct QueryOptions {
  /// Forecaster applied to measurement histories; the paper "simply uses
  /// the most recent measurements as a forecast for the future".
  ForecasterPtr forecaster = std::make_shared<LastValue>();
  /// When non-zero, the named application's own load and traffic are
  /// excluded from the answer — required for dynamic migration (§3.3):
  /// "the load and traffic caused by the application itself must be
  /// captured separately as it is not due to a competing process."
  sim::OwnerTag exclude_owner = sim::kBackgroundOwner;
  /// Staleness bound: series whose newest sample is older than this at
  /// query time answer the forecaster fallback instead of replaying old
  /// samples (see Forecaster::estimate_bounded). The +infinity default is
  /// the historical behaviour, bit-identical.
  double max_sample_age = std::numeric_limits<double>::infinity();
  /// When non-null, filled with the freshness/coverage accounting of the
  /// query. Purely observational: attaching it never changes an answer.
  QueryQuality* quality = nullptr;
};

class Remos {
 public:
  Remos(sim::NetworkSim& net, MonitorConfig cfg = {});

  /// Start the monitoring processes (call once, before querying).
  void start() { monitor_.start(); }
  Monitor& monitor() { return monitor_; }
  const Monitor& monitor() const { return monitor_; }

  /// Logical-topology query: the graph annotated with measured cpu and
  /// available-bandwidth values. This is the structural information "that
  /// cannot be captured by measurements between pairs of compute nodes".
  /// It is refresh_snapshot() over the capacity/zero-load prior, so a
  /// non-finite forecast leaves that sensor at its prior reading.
  NetworkSnapshot snapshot(const QueryOptions& opt = {}) const;

  /// Measures into an existing snapshot, writing only the sensors whose
  /// reading actually changed, so the snapshot's delta journal captures
  /// exactly the changed measurements. A long-lived
  /// select::SelectionContext over `snap` then revalidates fine-grainedly
  /// (per-link row repair) instead of dropping every cache. `snap` must
  /// view this Remos's topology. A non-finite forecast is not written: its
  /// sensor keeps the previous reading, the remos.refresh.nonfinite counter
  /// counts it, and the refresh records one NonFiniteForecast flight event.
  /// Returns the number of deltas emitted (epoch advance).
  std::size_t refresh_snapshot(NetworkSnapshot& snap,
                               const QueryOptions& opt = {}) const;

  /// Flow query: bottleneck *residual* bandwidth on the static route
  /// between two nodes (capacity minus measured traffic, per direction
  /// traversed); +inf when src == dst. Both flow queries throw
  /// std::out_of_range for an id outside [0, node count).
  double available_bandwidth(topo::NodeId src, topo::NodeId dst,
                             const QueryOptions& opt = {}) const;

  /// Flow query accounting for sharing: the max-min fair share a new flow
  /// could expect on the route — max(residual, capacity/(flows+1)) per
  /// traversed direction, minimised over the route.
  double projected_flow_bandwidth(topo::NodeId src, topo::NodeId dst,
                                  const QueryOptions& opt = {}) const;

  /// Measured load average of a node under the given options.
  double load_average(topo::NodeId n, const QueryOptions& opt = {}) const;

  const topo::TopologyGraph& topology() const { return net_.topology(); }

  /// Logical-topology query scoped to "the relevant part of the network"
  /// (§2.2): the sub-topology spanned by the routes among `nodes`. Combine
  /// with snapshot() + project_snapshot() for an annotated view.
  topo::LogicalSubgraph logical_subgraph(
      const std::vector<topo::NodeId>& nodes) const {
    return topo::extract_subgraph(net_.topology(), nodes);
  }

 private:
  /// Forecast utilisation of one link direction, with optional owner
  /// exclusion (exclusion uses the current owner contribution, since SNMP
  /// counters cannot attribute bytes to applications).
  double forecast_link_used(topo::LinkId l, bool forward,
                            const QueryOptions& opt) const;
  /// Age-bounded estimate over one primary sensor series, accounting it
  /// into opt.quality (when attached).
  double forecast_sensor(const TimeSeries& ts, double fallback,
                         const QueryOptions& opt) const;
  /// Same, for auxiliary series (owner attribution, memory) that ride on a
  /// sensor already accounted: bounded, but not counted in quality.
  double forecast_aux(const TimeSeries& ts, double fallback,
                      const QueryOptions& opt) const;
  /// Freshness horizon for quality accounting: max_sample_age when finite,
  /// otherwise the monitor's history window.
  double freshness_horizon(const QueryOptions& opt) const;

  sim::NetworkSim& net_;
  Monitor monitor_;
};

}  // namespace netsel::remos
