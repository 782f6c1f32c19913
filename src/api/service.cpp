#include "api/service.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "obs/metrics.hpp"
#include "select/context.hpp"
#include "select/objective.hpp"
#include "select/patterns.hpp"

namespace netsel::api {

namespace {

struct ServiceMetrics {
  obs::Counter& placements;
  obs::Counter& placements_infeasible;
  obs::Counter& degradation_full;
  obs::Counter& degradation_smoothed;
  obs::Counter& degradation_prior;
  obs::Histogram& candidate_set_size;

  obs::Counter& degradation(DegradationLevel level) {
    switch (level) {
      case DegradationLevel::Full: return degradation_full;
      case DegradationLevel::Smoothed: return degradation_smoothed;
      case DegradationLevel::Prior: return degradation_prior;
    }
    return degradation_full;
  }
};

ServiceMetrics& service_metrics() {
  static ServiceMetrics m{
      obs::Registry::global().counter("api.placements"),
      obs::Registry::global().counter("api.placements_infeasible"),
      obs::Registry::global().counter("api.degradation.full"),
      obs::Registry::global().counter("api.degradation.smoothed"),
      obs::Registry::global().counter("api.degradation.prior"),
      // Exponential: candidate sets range from a handful of pinned hosts to
      // every host of a ~1M-host fabric; 2, 4, ..., 2^20 covers the largest
      // generated topology without dumping everything in the overflow bucket.
      obs::Registry::global().histogram("api.candidate_set_size",
                                        obs::exp_buckets(2.0, 2.0, 20)),
  };
  return m;
}

std::string coverage_reason(double coverage, DegradationLevel level,
                            const DegradationPolicy& policy) {
  char buf[160];
  switch (level) {
    case DegradationLevel::Full:
      std::snprintf(buf, sizeof(buf),
                    "coverage %.2f >= smoothed_below %.2f -> measured "
                    "snapshot",
                    coverage, policy.smoothed_below);
      break;
    case DegradationLevel::Smoothed:
      std::snprintf(buf, sizeof(buf),
                    "coverage %.2f < smoothed_below %.2f -> smoothed "
                    "forecaster",
                    coverage, policy.smoothed_below);
      break;
    case DegradationLevel::Prior:
      std::snprintf(buf, sizeof(buf),
                    "coverage %.2f < prior_below %.2f -> capacity prior",
                    coverage, policy.prior_below);
      break;
  }
  return buf;
}

std::size_t mask_count(const std::vector<char>& mask) {
  return static_cast<std::size_t>(
      std::count(mask.begin(), mask.end(), char(1)));
}

}  // namespace

void register_service_metrics() { (void)service_metrics(); }

select::Criterion default_criterion(AppPattern p) {
  switch (p) {
    case AppPattern::LooselySynchronous: return select::Criterion::Balanced;
    case AppPattern::MasterSlave: return select::Criterion::Balanced;
    case AppPattern::ClientServer: return select::Criterion::Balanced;
    case AppPattern::Custom: return select::Criterion::Balanced;
  }
  return select::Criterion::Balanced;
}

namespace {

/// Eligibility mask for one group: untaken compute nodes matching its tags
/// and host list.
std::vector<char> group_mask(const topo::TopologyGraph& g,
                             const NodeGroup& group,
                             const std::vector<char>& taken) {
  std::vector<char> mask(g.node_count(), 0);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    auto n = static_cast<topo::NodeId>(i);
    if (!g.is_compute(n) || taken[i]) continue;
    bool ok = true;
    for (const auto& tag : group.required_tags) {
      if (!g.has_tag(n, tag)) {
        ok = false;
        break;
      }
    }
    if (ok && !group.allowed_hosts.empty()) {
      ok = std::find(group.allowed_hosts.begin(), group.allowed_hosts.end(),
                     g.node_name(n)) != group.allowed_hosts.end();
    }
    mask[i] = ok ? 1 : 0;
  }
  return mask;
}

}  // namespace

remos::NetworkSnapshot NodeSelectionService::degraded_snapshot(
    const remos::QueryOptions& query, const DegradationPolicy& policy,
    DegradationLevel& level, remos::QueryQuality& quality) const {
  if (policy.prior_below > policy.smoothed_below)
    throw std::invalid_argument(
        "DegradationPolicy: prior_below must be <= smoothed_below");
  remos::QueryOptions probe = query;
  quality = remos::QueryQuality{};
  probe.quality = &quality;
  auto snap = remos_->snapshot(probe);
  if (query.quality) *query.quality = quality;

  double coverage = quality.coverage();
  level = coverage < policy.prior_below      ? DegradationLevel::Prior
          : coverage < policy.smoothed_below ? DegradationLevel::Smoothed
                                             : DegradationLevel::Full;
  // Every ladder decision is counted here, whichever entry point asked
  // (place, select, or a diagnostic caller).
  service_metrics().degradation(level).inc();
  switch (level) {
    case DegradationLevel::Full:
      // The probe query *is* the answer: attaching quality never changes
      // values, so this path is bit-identical to the policy-less service.
      return snap;
    case DegradationLevel::Smoothed: {
      remos::QueryOptions smoothed = query;
      smoothed.quality = nullptr;
      smoothed.forecaster = policy.smoothed_forecaster
                                ? policy.smoothed_forecaster
                                : std::make_shared<remos::WindowMean>();
      smoothed.max_sample_age =
          policy.smoothed_max_age > 0.0
              ? policy.smoothed_max_age
              : remos_->monitor().config().history_window;
      return remos_->snapshot(smoothed);
    }
    case DegradationLevel::Prior:
      // Too little measured state to be worth smoothing: the constructor's
      // capacity/zero-load prior (cpu 1, links at capacity, memory free).
      return remos::NetworkSnapshot(remos_->topology());
  }
  return snap;
}

Placement NodeSelectionService::place(const AppSpec& spec,
                                      const ServiceOptions& opt) const {
  spec.validate();
  const auto& g = remos_->topology();
  ServiceMetrics& metrics = service_metrics();
  metrics.placements.inc();
  obs::Span span("api.place", "api",
                 remos_->monitor().net().sim().now());
  span.arg("app", spec.name);
  DegradationLevel level = DegradationLevel::Full;
  remos::QueryQuality quality;
  auto snap = degraded_snapshot(opt.query, opt.degradation, level, quality);
  if (span.active())
    span.arg("degradation", degradation_level_name(level));

  // Client-server specs with exactly two groups use the pattern-aware
  // extension (§3.4): the higher-priority group is the server side, chosen
  // for maximum compute; clients are scored by the server->client
  // *directional* bandwidth.
  if (spec.pattern == AppPattern::ClientServer && spec.groups.size() == 2 &&
      !opt.criterion.has_value()) {
    std::size_t si =
        spec.groups[0].placement_priority >= spec.groups[1].placement_priority
            ? 0
            : 1;
    std::size_t ci = 1 - si;
    std::vector<char> none(g.node_count(), 0);
    select::ClientServerOptions cso;
    cso.num_servers = spec.groups[si].count;
    cso.num_clients = spec.groups[ci].count;
    cso.cpu_priority = spec.cpu_priority;
    cso.bw_priority = spec.bw_priority;
    cso.server_eligible = group_mask(g, spec.groups[si], none);
    cso.client_eligible = group_mask(g, spec.groups[ci], none);
    metrics.candidate_set_size.observe(
        static_cast<double>(mask_count(cso.server_eligible)));
    metrics.candidate_set_size.observe(
        static_cast<double>(mask_count(cso.client_eligible)));
    auto r = select::select_client_server(snap, cso);
    Placement placement;
    placement.degradation = level;
    placement.measurement_coverage = quality.coverage();
    placement.app = spec.name;
    placement.criterion = "client-server";
    placement.degradation_reason =
        coverage_reason(quality.coverage(), level, opt.degradation);
    placement.cpu_priority = spec.cpu_priority;
    placement.bw_priority = spec.bw_priority;
    placement.group_nodes.resize(2);
    placement.groups.resize(2);
    placement.groups[si].group = spec.groups[si].name;
    placement.groups[ci].group = spec.groups[ci].name;
    placement.groups[si].candidates = mask_count(cso.server_eligible);
    placement.groups[ci].candidates = mask_count(cso.client_eligible);
    if (span.active()) span.arg("criterion", placement.criterion);
    if (!r.feasible) {
      // Same shape as the generic multi-group path: every group that could
      // not be placed carries the algorithm note, and the top-level note
      // names the groups. Server and client selection are one joint
      // decision here, so both groups failed together.
      const std::string why = r.note.empty() ? "infeasible" : r.note;
      placement.groups[si].note = why;
      placement.groups[ci].note = why;
      placement.note = "group '" + spec.groups[si].name + "' + '" +
                       spec.groups[ci].name + "': " + why;
      metrics.placements_infeasible.inc();
      if (span.active()) span.arg("feasible", "false");
      return placement;
    }
    placement.feasible = true;
    placement.group_nodes[si] = std::move(r.servers);
    placement.group_nodes[ci] = std::move(r.clients);
    // Per-group achieved figures come from the generic set evaluation on
    // the same snapshot (observational only — the decision was r's).
    select::SelectionContext csx(snap);
    select::SelectionOptions ev_opt;
    ev_opt.cpu_priority = spec.cpu_priority;
    ev_opt.bw_priority = spec.bw_priority;
    for (std::size_t gi : {si, ci}) {
      auto& info = placement.groups[gi];
      info.nodes = placement.group_nodes[gi];
      auto ev = select::evaluate_set(csx, info.nodes, ev_opt);
      info.min_cpu = ev.min_cpu;
      info.min_bw_fraction = ev.min_pair_bw_fraction;
      info.min_pair_bw = ev.min_pair_bw;
      info.objective = gi == ci ? r.objective : ev.balanced;
    }
    if (span.active()) span.arg("feasible", "true");
    return placement;
  }

  select::Criterion criterion =
      opt.criterion.value_or(default_criterion(spec.pattern));
  if (span.active()) span.arg("criterion", select::criterion_name(criterion));

  // Stable order: higher placement_priority first.
  std::vector<std::size_t> order(spec.groups.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return spec.groups[a].placement_priority > spec.groups[b].placement_priority;
  });

  Placement placement;
  placement.degradation = level;
  placement.measurement_coverage = quality.coverage();
  placement.app = spec.name;
  placement.criterion = select::criterion_name(criterion);
  placement.degradation_reason =
      coverage_reason(quality.coverage(), level, opt.degradation);
  placement.cpu_priority = spec.cpu_priority;
  placement.bw_priority = spec.bw_priority;
  placement.group_nodes.resize(spec.groups.size());
  placement.groups.resize(spec.groups.size());
  for (std::size_t gi = 0; gi < spec.groups.size(); ++gi)
    placement.groups[gi].group = spec.groups[gi].name;
  std::vector<char> taken(g.node_count(), 0);

  // One context for all groups: they share the snapshot, so the deletion
  // orders and bottleneck rows are computed once (only the eligibility mask
  // differs per group, and that is per-call state).
  select::SelectionContext ctx(snap);

  for (std::size_t gi : order) {
    const NodeGroup& group = spec.groups[gi];
    select::SelectionOptions sel;
    sel.num_nodes = group.count;
    sel.cpu_priority = spec.cpu_priority;
    sel.bw_priority = spec.bw_priority;
    sel.min_bw_bps = spec.min_bw_bps;
    sel.min_cpu_fraction = spec.min_cpu_fraction;
    sel.min_free_memory_bytes = spec.min_free_memory_bytes;
    sel.exact = opt.exact;
    sel.eligible = group_mask(g, group, taken);
    GroupPlacementInfo& info = placement.groups[gi];
    info.candidates = mask_count(sel.eligible);
    metrics.candidate_set_size.observe(static_cast<double>(info.candidates));
    auto result = select::select_nodes(criterion, ctx, sel);
    info.min_cpu = result.min_cpu;
    info.min_bw_fraction = result.min_bw_fraction;
    info.objective = result.objective;
    info.note = result.note;
    if (!result.feasible) {
      placement.feasible = false;
      placement.note = "group '" + group.name + "': " +
                       (result.note.empty() ? "infeasible" : result.note);
      metrics.placements_infeasible.inc();
      if (span.active()) span.arg("feasible", "false");
      return placement;
    }
    // The bits/second bottleneck is not on SelectionResult; the context's
    // cached rows make this re-evaluation O(set^2) lookups.
    info.min_pair_bw = select::evaluate_set(ctx, result.nodes, sel).min_pair_bw;
    info.nodes = result.nodes;
    for (topo::NodeId n : result.nodes) taken[static_cast<std::size_t>(n)] = 1;
    placement.group_nodes[gi] = std::move(result.nodes);
  }
  placement.feasible = true;
  if (span.active()) span.arg("feasible", "true");
  return placement;
}

select::SelectionResult NodeSelectionService::select(
    int m, select::Criterion c, const ServiceOptions& opt) const {
  DegradationLevel level = DegradationLevel::Full;
  remos::QueryQuality quality;
  auto snap = degraded_snapshot(opt.query, opt.degradation, level, quality);
  select::SelectionOptions sel;
  sel.num_nodes = m;
  sel.exact = opt.exact;
  // The same context path every other entry point takes (place, reselect):
  // cached deletion orders and bottleneck rows, bit-identical results.
  select::SelectionContext ctx(snap);
  auto result = select::select_nodes(c, ctx, sel);
  if (level != DegradationLevel::Full) {
    if (!result.note.empty()) result.note += "; ";
    result.note += std::string("degraded: ") + degradation_level_name(level);
  }
  return result;
}

select::SelectionResult NodeSelectionService::select(
    int m, select::Criterion c, const remos::QueryOptions& q) const {
  ServiceOptions opt;
  opt.query = q;
  return select(m, c, opt);
}

ReselectResult NodeSelectionService::reselect(
    const std::vector<topo::NodeId>& current, const ReselectOptions& ropt,
    const ServiceOptions& opt) const {
  DegradationLevel level = DegradationLevel::Full;
  remos::QueryQuality quality;
  auto snap = degraded_snapshot(opt.query, opt.degradation, level, quality);
  select::SelectionContext ctx(snap);
  auto result = api::reselect(ctx, current, ropt);
  if (level != DegradationLevel::Full) {
    if (!result.note.empty()) result.note += "; ";
    result.note += std::string("degraded: ") + degradation_level_name(level);
  }
  return result;
}

}  // namespace netsel::api
