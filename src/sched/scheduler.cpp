#include "sched/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "obs/flight.hpp"
#include "obs/jobtrace.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "remos/remos.hpp"  // kBwFloor
#include "select/objective.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace netsel::sched {

namespace {

using util::fnv1a;
using util::fnv1a_double;

/// Delta-journal capacity of the cluster snapshot.
constexpr std::size_t kClusterJournalCapacity = 65536;

struct SchedMetrics {
  obs::Counter& submitted;
  obs::Counter& admitted;
  obs::Counter& rejected;
  obs::Counter& timed_out;
  obs::Counter& placed;
  obs::Counter& completed;
  obs::Counter& conflicts;
  obs::Counter& infeasible;
  obs::Counter& rebalance_attempts;
  obs::Counter& rebalance_migrations;
  obs::Counter& ladder_full;
  obs::Counter& ladder_smoothed;
  obs::Counter& ladder_prior;
  obs::Gauge& queue_depth;
  obs::Gauge& running;
  obs::Histogram& placement_latency;
  obs::Histogram& queue_wait;
  obs::Histogram& candidate_set;
};

SchedMetrics& metrics() {
  static SchedMetrics m{
      obs::Registry::global().counter("sched.jobs.submitted"),
      obs::Registry::global().counter("sched.jobs.admitted"),
      obs::Registry::global().counter("sched.jobs.rejected"),
      obs::Registry::global().counter("sched.jobs.timeout"),
      obs::Registry::global().counter("sched.jobs.placed"),
      obs::Registry::global().counter("sched.jobs.completed"),
      obs::Registry::global().counter("sched.place.conflicts"),
      obs::Registry::global().counter("sched.place.infeasible"),
      obs::Registry::global().counter("sched.rebalance.attempts"),
      obs::Registry::global().counter("sched.rebalance.migrations"),
      obs::Registry::global().counter("sched.ladder.full"),
      obs::Registry::global().counter("sched.ladder.smoothed"),
      obs::Registry::global().counter("sched.ladder.prior"),
      obs::Registry::global().gauge("sched.queue.depth"),
      obs::Registry::global().gauge("sched.jobs.running"),
      // Wall-clock placement decisions: 1 us .. ~32 s, factor 2.
      obs::Registry::global().histogram("sched.placement_latency_s",
                                        obs::exp_buckets(1e-6, 2.0, 26)),
      // Simulated queue waits: 0.25 s .. ~1 week, factor 2.
      obs::Registry::global().histogram("sched.queue_wait_s",
                                        obs::exp_buckets(0.25, 2.0, 22)),
      // Shared with the api layer (same bounds; first registration wins —
      // register_scheduler_metrics() routes through register_service_metrics
      // so both sites agree).
      obs::Registry::global().histogram("api.candidate_set_size",
                                        obs::exp_buckets(2.0, 2.0, 20)),
  };
  return m;
}

/// `cfg`, or std::invalid_argument naming the first bad field. Runs in the
/// constructor's initialiser list, before either snapshot is built.
SchedulerConfig validated(SchedulerConfig cfg) {
  if (cfg.placement_lanes < 1)
    throw std::invalid_argument("SchedulerConfig: placement_lanes < 1");
  if (cfg.backfill_window < 1)
    throw std::invalid_argument("SchedulerConfig: backfill_window < 1");
  // NaN fails every comparison, so each check is written to pass only on
  // a good value.
  if (!(cfg.queue_timeout >= 0.0))
    throw std::invalid_argument(
        "SchedulerConfig: queue_timeout must be >= 0 (infinity = never)");
  if (!(cfg.schedule_interval >= 0.0 && std::isfinite(cfg.schedule_interval)))
    throw std::invalid_argument(
        "SchedulerConfig: schedule_interval must be finite and >= 0");
  return cfg;
}

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::Submitted: return "submitted";
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Completed: return "completed";
    case JobState::Rejected: return "rejected";
    case JobState::TimedOut: return "timed-out";
  }
  return "?";
}

void register_scheduler_metrics() {
  api::register_service_metrics();
  (void)metrics();
  // The rebalance path drives api::reselect; touch its counters so the
  // exporters list them at zero before the first release.
  obs::Registry::global().counter("api.reselect.calls");
  obs::Registry::global().counter("api.reselect.migrations");
  // Telemetry mirrors (DESIGN.md §13): pre-registered so a zero-event run
  // still exports every documented name — the gtest
  // SchedulerTelemetry.ExportsReconcileWithRegistry pins the set.
  obs::Registry::global().counter("obs.ts.samples");
  obs::Registry::global().counter("obs.ts.dropped");
  obs::Registry::global().gauge("obs.ts.series");
  obs::Registry::global().counter("obs.trace.traces");
  obs::Registry::global().counter("obs.trace.spans");
  obs::Registry::global().counter("obs.flight.events");
}

SchedulerService::SchedulerService(const topo::TopologyGraph& g,
                                   SchedulerConfig cfg)
    : graph_(&g), cfg_(validated(cfg)), cluster_(g), prior_(g) {
  // The journal must cover the mutations between two uses of the *least
  // recently used* lane, or that lane pays a full rebuild (correct either
  // way).
  cluster_.set_delta_journal_capacity(kClusterJournalCapacity);
  lanes_.resize(static_cast<std::size_t>(cfg_.placement_lanes));
  for (Lane& l : lanes_) {
    l.live = std::make_unique<select::SelectionContext>(cluster_);
    l.prior = std::make_unique<select::SelectionContext>(prior_);
  }
  owner_.assign(g.node_count(), 0);
  register_scheduler_metrics();
  flight_ = cfg_.flight ? cfg_.flight : &obs::FlightRecorder::global();
  if (cfg_.timeseries) {
    obs::TimeSeriesRecorder& ts = *cfg_.timeseries;
    ts.add_gauge("sched.queue.depth",
                 [this] { return static_cast<double>(queue_.size()); });
    ts.add_gauge("sched.jobs.running",
                 [this] { return static_cast<double>(allocations_.size()); });
    ts.add_gauge("sched.ladder.rung",
                 [this] { return static_cast<double>(last_rung_); });
    ts.add_counter("sched.jobs.submitted", [this] { return stats_.submitted; });
    ts.add_counter("sched.jobs.placed", [this] { return stats_.placed; });
    ts.add_counter("sched.jobs.completed", [this] { return stats_.completed; });
    ts.add_counter("sched.place.conflicts",
                   [this] { return stats_.conflicts; });
    ts.add_counter("sched.place.infeasible",
                   [this] { return stats_.infeasible_attempts; });
  }
}

SchedulerService::~SchedulerService() = default;

void SchedulerService::set_tenant_policy(const std::string& tenant,
                                         TenantPolicy policy) {
  api::validate_degradation_policy(policy.degradation);
  tenants_[tenant] = std::move(policy);
}

void SchedulerService::set_measurement_coverage(double coverage) {
  if (std::isnan(coverage))
    throw std::invalid_argument("set_measurement_coverage: NaN coverage");
  coverage_ = std::min(1.0, std::max(0.0, coverage));
}

std::uint64_t SchedulerService::submit(JobSpec spec, double arrival_time) {
  // Every check runs before any state changes: a rejected job leaves no
  // record, event or counter behind.
  if (spec.nodes < 1)
    throw std::invalid_argument("JobSpec: nodes < 1");
  if (!(spec.duration > 0.0))
    throw std::invalid_argument("JobSpec: duration must be positive");
  if (!std::isfinite(arrival_time))
    throw std::invalid_argument("submit: arrival time must be finite");
  if (!std::isfinite(spec.load) || spec.load < 0.0)
    throw std::invalid_argument("JobSpec: load must be finite and >= 0");
  if (!(spec.traffic_fraction >= 0.0 && spec.traffic_fraction <= 1.0))
    throw std::invalid_argument("JobSpec: traffic_fraction must be in [0, 1]");
  if (!std::isfinite(spec.cpu_priority) || !(spec.cpu_priority > 0.0) ||
      !std::isfinite(spec.bw_priority) || !(spec.bw_priority > 0.0))
    throw std::invalid_argument("JobSpec: priorities must be finite and > 0");
  for (const double req : {spec.min_bw_bps, spec.min_cpu_fraction,
                           spec.min_free_memory_bytes})
    if (!std::isfinite(req) || req < 0.0)
      throw std::invalid_argument(
          "JobSpec: requirements must be finite and >= 0");
  const std::uint64_t id = jobs_.size();
  JobRecord rec;
  rec.id = id;
  rec.spec = std::move(spec);
  rec.submit_time = std::max(arrival_time, now_);
  jobs_.push_back(std::move(rec));
  push_event(jobs_.back().submit_time, Event::Kind::Arrival, id);
  ++stats_.submitted;
  metrics().submitted.inc();
  return id;
}

void SchedulerService::push_event(double time, Event::Kind kind,
                                  std::uint64_t job) {
  events_.push(Event{time, next_seq_++, kind, job});
}

void SchedulerService::run_until(double t) {
  while (!events_.empty() && events_.top().time <= t) {
    const double et = events_.top().time;
    // Cadence boundaries strictly before this instant sample the
    // carried-forward state; a boundary coinciding with it is sampled by
    // the inclusive call below, after the events have been applied.
    if (cfg_.timeseries) cfg_.timeseries->sample_until(et, /*inclusive=*/false);
    now_ = et;
    // Drain every event at this instant (a departure freeing nodes at the
    // same time an arrival lands must be visible to that arrival's round).
    bool ticked = false;
    while (!events_.empty() && events_.top().time == et) {
      const Event ev = events_.top();
      events_.pop();
      switch (ev.kind) {
        case Event::Kind::Arrival: handle_arrival(ev.job); break;
        case Event::Kind::Departure: handle_departure(ev.job); break;
        case Event::Kind::Timeout: handle_timeout(ev.job); break;
        case Event::Kind::Tick:
          tick_pending_ = false;
          ticked = true;
          break;
      }
    }
    if (cfg_.schedule_interval <= 0.0 || ticked) schedule_round();
    // Keep the tick chain alive while work is waiting: the next round is
    // one interval out, regardless of what events land in between.
    if (cfg_.schedule_interval > 0.0 && !queue_.empty() && !tick_pending_) {
      push_event(now_ + cfg_.schedule_interval, Event::Kind::Tick, 0);
      tick_pending_ = true;
    }
    // Depth gauges track every event instant, not just scheduling rounds:
    // under a positive schedule_interval the tail departures of a drain
    // never trigger another round, and the gauges must not stay stale.
    sync_depth_gauges();
  }
  if (t > now_) now_ = t;
  if (cfg_.timeseries) cfg_.timeseries->sample_until(now_, /*inclusive=*/true);
}

void SchedulerService::drain() {
  while (!events_.empty()) run_until(events_.top().time);
}

void SchedulerService::handle_arrival(std::uint64_t id) {
  JobRecord& rec = jobs_[id];
  if (rec.state != JobState::Submitted) return;
  if (queue_.size() >= cfg_.max_queue_depth) {
    rec.state = JobState::Rejected;
    rec.finish_time = now_;
    rec.note = "admission: queue full";
    ++stats_.rejected;
    metrics().rejected.inc();
    flight_->record(obs::FlightKind::Reject, now_, id, queue_.size(),
                    rec.spec.tenant);
    if (cfg_.job_trace) {
      const std::uint32_t root = cfg_.job_trace->begin(
          id, obs::JobSpan::kNoParent, "job", now_);
      cfg_.job_trace->annotate(id, root, "tenant", rec.spec.tenant);
      cfg_.job_trace->span(id, root, "admit.reject", now_, now_);
      cfg_.job_trace->end(id, root, now_);
    }
    return;
  }
  rec.state = JobState::Queued;
  queue_.push_back(id);
  ++stats_.admitted;
  metrics().admitted.inc();
  flight_->record(obs::FlightKind::Admit, now_, id,
                  static_cast<std::uint64_t>(rec.spec.nodes),
                  rec.spec.tenant);
  if (cfg_.job_trace) {
    OpenSpans& open = trace_open_[id];
    open.root =
        cfg_.job_trace->begin(id, obs::JobSpan::kNoParent, "job", now_);
    cfg_.job_trace->annotate(id, open.root, "tenant", rec.spec.tenant);
    cfg_.job_trace->annotate(id, open.root, "nodes",
                             std::to_string(rec.spec.nodes));
    open.queue = cfg_.job_trace->begin(id, open.root, "queue.wait", now_);
  }
  if (std::isfinite(cfg_.queue_timeout))
    push_event(now_ + cfg_.queue_timeout, Event::Kind::Timeout, id);
}

void SchedulerService::handle_departure(std::uint64_t id) {
  JobRecord& rec = jobs_[id];
  if (rec.state != JobState::Running) return;
  release(rec);
  rec.state = JobState::Completed;
  rec.finish_time = now_;
  ++stats_.completed;
  metrics().completed.inc();
  flight_->record(obs::FlightKind::Complete, now_, id, rec.nodes.size(),
                  rec.spec.tenant);
  close_trace(id, "release");
  maybe_rebalance();
}

void SchedulerService::handle_timeout(std::uint64_t id) {
  JobRecord& rec = jobs_[id];
  if (rec.state != JobState::Queued) return;  // stale: already placed
  remove_queued(id);
  rec.state = JobState::TimedOut;
  rec.finish_time = now_;
  rec.note = "queue: waited past timeout";
  ++stats_.timed_out;
  metrics().timed_out.inc();
  flight_->record(obs::FlightKind::Timeout, now_, id, 0, rec.spec.tenant);
  close_trace(id, "timeout");
}

void SchedulerService::close_trace(std::uint64_t id,
                                   const char* terminal_span) {
  if (!cfg_.job_trace) return;
  auto it = trace_open_.find(id);
  if (it == trace_open_.end()) return;
  OpenSpans& open = it->second;
  if (open.running)
    cfg_.job_trace->end(id, open.run, now_);
  else
    cfg_.job_trace->end(id, open.queue, now_);
  cfg_.job_trace->span(id, open.root, terminal_span, now_, now_);
  cfg_.job_trace->end(id, open.root, now_);
  trace_open_.erase(it);
}

void SchedulerService::remove_queued(std::uint64_t id) {
  auto it = std::find(queue_.begin(), queue_.end(), id);
  if (it != queue_.end()) queue_.erase(it);
}

std::vector<std::uint64_t> SchedulerService::queued_jobs() const {
  return {queue_.begin(), queue_.end()};
}

SchedulerService::Lane& SchedulerService::lane(std::size_t i) {
  return lanes_[i % lanes_.size()];
}

api::DegradationLevel SchedulerService::ladder_level(
    const std::string& tenant) const {
  api::DegradationPolicy policy;  // default thresholds for unknown tenants
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) policy = it->second.degradation;
  return api::degradation_level(coverage_, policy);
}

select::SelectionOptions SchedulerService::job_options(
    const JobSpec& spec, api::DegradationLevel level) const {
  select::SelectionOptions opt;
  opt.num_nodes = spec.nodes;
  opt.cpu_priority = spec.cpu_priority;
  opt.bw_priority = spec.bw_priority;
  // Smoothed keeps the measured *ranking* but drops the fixed requirements:
  // stale absolute readings must not hard-filter hosts. Prior runs on the
  // capacity snapshot where requirements are trivially meaningful again.
  if (level != api::DegradationLevel::Smoothed) {
    opt.min_bw_bps = spec.min_bw_bps;
    opt.min_cpu_fraction = spec.min_cpu_fraction;
    opt.min_free_memory_bytes = spec.min_free_memory_bytes;
  }
  return opt;
}

SchedulerService::Decision SchedulerService::place_job(
    const JobRecord& rec, Lane& ln,
    const std::vector<std::uint64_t>& owner) const {
  const auto t0 = std::chrono::steady_clock::now();
  Decision d;
  d.level = ladder_level(rec.spec.tenant);
  select::SelectionOptions opt = job_options(rec.spec, d.level);
  opt.eligible.resize(owner.size());
  for (std::size_t i = 0; i < owner.size(); ++i)
    opt.eligible[i] = owner[i] ? 0 : 1;
  const select::SelectionContext& ctx =
      d.level == api::DegradationLevel::Prior ? *ln.prior : *ln.live;
  {
    const std::vector<char> elig = ctx.eligibility(opt);
    d.candidates = static_cast<std::size_t>(
        std::count(elig.begin(), elig.end(), char(1)));
  }
  select::SelectionResult r =
      select::select_nodes(rec.spec.criterion, ctx, opt);
  d.feasible = r.feasible;
  d.nodes = std::move(r.nodes);
  std::sort(d.nodes.begin(), d.nodes.end());
  d.objective = r.objective;
  d.note = std::move(r.note);
  d.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  return d;
}

void SchedulerService::note_ladder(const std::string& tenant,
                                   api::DegradationLevel level) {
  SchedMetrics& m = metrics();
  const char* name = api::degradation_level_name(level);
  switch (level) {
    case api::DegradationLevel::Full: m.ladder_full.inc(); break;
    case api::DegradationLevel::Smoothed: m.ladder_smoothed.inc(); break;
    case api::DegradationLevel::Prior: m.ladder_prior.inc(); break;
  }
  const int rung = static_cast<int>(level);
  last_rung_ = rung;
  auto [it, inserted] = flight_rung_.emplace(tenant, rung);
  if (!inserted && it->second != rung) {
    flight_->record(obs::FlightKind::LadderTransition, now_,
                    static_cast<std::uint64_t>(it->second),
                    static_cast<std::uint64_t>(rung), tenant);
    it->second = rung;
  }
  if (obs::enabled())
    obs::Registry::global()
        .counter("sched.ladder.tenant." + tenant + "." + name)
        .inc();
}

void SchedulerService::schedule_round() {
  SchedMetrics& m = metrics();
  if (!queue_.empty()) {
    obs::Span span("sched.round", "sched", now_);
    if (span.active()) {
      span.arg("queued", std::to_string(queue_.size()));
      span.sim_range(now_, now_);
    }
    // Backfill window: the first W queued jobs, FIFO. A blocked head does
    // not starve feasible jobs behind it.
    const std::size_t window = std::min(
        queue_.size(), static_cast<std::size_t>(cfg_.backfill_window));
    std::vector<std::uint64_t> cand(queue_.begin(),
                                    queue_.begin() +
                                        static_cast<std::ptrdiff_t>(window));

    // Phase A — speculate placements against the round-start state. Lane
    // count (config) fixes the partition; the pool only adds concurrency,
    // so results are bit-identical at any thread count. Lane k serially
    // handles candidates k, k+L, k+2L, ... on its own long-lived contexts;
    // nothing mutates cluster_ (or owner_) during this phase.
    const std::size_t L =
        std::min(window, static_cast<std::size_t>(cfg_.placement_lanes));
    std::vector<Decision> dec(window);
    const std::vector<std::uint64_t>& owner = owner_;
    auto lane_body = [&](std::size_t k) {
      Lane& ln = lane(k);
      for (std::size_t i = k; i < window; i += L)
        dec[i] = place_job(jobs_[cand[i]], ln, owner);
    };
    if (cfg_.pool && L > 1) {
      util::parallel_for(*cfg_.pool, L, lane_body);
    } else {
      for (std::size_t k = 0; k < L; ++k) lane_body(k);
    }

    // Phase B — commit serially in queue order. A speculative set that
    // collides with an earlier commit of this round is re-placed serially
    // against the updated state on lane 0.
    for (std::size_t i = 0; i < window; ++i) {
      JobRecord& rec = jobs_[cand[i]];
      Decision d = std::move(dec[i]);
      // Trace span for the speculative attempt. Lane attribution (i % L)
      // depends on the configured lane count, so it lives in args only —
      // the trace digest excludes args and stays lane-count-invariant.
      OpenSpans* open = nullptr;
      if (cfg_.job_trace) {
        auto oit = trace_open_.find(rec.id);
        if (oit != trace_open_.end()) open = &oit->second;
      }
      if (open) {
        const std::uint32_t att = cfg_.job_trace->span(
            rec.id, open->root, "place.attempt", now_, now_);
        cfg_.job_trace->annotate(rec.id, att, "lane", std::to_string(i % L));
        cfg_.job_trace->annotate(rec.id, att, "feasible",
                                 d.feasible ? "true" : "false");
        cfg_.job_trace->annotate(rec.id, att, "candidates",
                                 std::to_string(d.candidates));
      }
      if (d.feasible) {
        const bool conflict =
            std::any_of(d.nodes.begin(), d.nodes.end(), [&](topo::NodeId n) {
              return owner_[static_cast<std::size_t>(n)] != 0;
            });
        if (conflict) {
          ++stats_.conflicts;
          m.conflicts.inc();
          flight_->record(obs::FlightKind::Conflict, now_, rec.id, i,
                          rec.spec.tenant);
          if (open)
            cfg_.job_trace->span(rec.id, open->root, "place.conflict", now_,
                                 now_);
          const double spec_seconds = d.seconds;
          d = place_job(rec, lane(0), owner_);
          d.seconds += spec_seconds;
        }
      }
      rec.candidates = d.candidates;
      if (!d.feasible) {
        ++rec.infeasible_attempts;
        ++stats_.infeasible_attempts;
        m.infeasible.inc();
        rec.note = d.note;
        flight_->record(obs::FlightKind::Infeasible, now_, rec.id,
                        d.candidates, rec.spec.tenant);
        continue;  // stays queued
      }
      remove_queued(rec.id);
      rec.state = JobState::Running;
      rec.start_time = now_;
      rec.placement_seconds = d.seconds;
      rec.note = d.note;
      const std::size_t placed_nodes = d.nodes.size();
      const double objective = d.objective;
      const api::DegradationLevel level = d.level;
      allocate(rec, std::move(d.nodes), d.objective, d.level);
      push_event(now_ + rec.spec.duration, Event::Kind::Departure, rec.id);
      ++stats_.placed;
      m.placed.inc();
      m.placement_latency.observe(d.seconds);
      m.queue_wait.observe(now_ - rec.submit_time);
      m.candidate_set.observe(static_cast<double>(d.candidates));
      note_ladder(rec.spec.tenant, level);
      flight_->record(obs::FlightKind::Place, now_, rec.id, placed_nodes,
                      rec.spec.tenant);
      if (open) {
        cfg_.job_trace->end(rec.id, open->queue, now_);
        const std::uint32_t commit = cfg_.job_trace->span(
            rec.id, open->root, "commit", now_, now_);
        cfg_.job_trace->annotate(rec.id, commit, "objective",
                                 std::to_string(objective));
        cfg_.job_trace->annotate(rec.id, commit, "ladder",
                                 api::degradation_level_name(level));
        open->run = cfg_.job_trace->begin(rec.id, open->root, "run", now_);
        open->running = true;
      }
    }
  }
  sync_depth_gauges();
}

void SchedulerService::sync_depth_gauges() {
  SchedMetrics& m = metrics();
  stats_.queued = queue_.size();
  stats_.running = allocations_.size();
  m.queue_depth.set(static_cast<double>(stats_.queued));
  m.running.set(static_cast<double>(stats_.running));
}

void SchedulerService::allocate(JobRecord& rec,
                                std::vector<topo::NodeId> nodes,
                                double objective,
                                api::DegradationLevel level) {
  Allocation alloc;
  for (topo::NodeId n : nodes) {
    assert(!owner_[static_cast<std::size_t>(n)]);
    owner_[static_cast<std::size_t>(n)] = rec.id + 1;
    // cpu = 1/(1 + load): stacking the job's load L onto a host currently
    // at cpu c lands at 1/(1 + load0 + L) = c / (1 + L*c).
    const double pre = cluster_.cpu(n);
    alloc.node_cpu.emplace_back(n, pre);
    cluster_.set_cpu(n, pre / (1.0 + rec.spec.load * pre));
    if (rec.spec.traffic_fraction > 0.0) {
      for (topo::LinkId l : graph_->links_of(n)) {
        const double fwd = cluster_.bw_dir(l, true);
        const double rev = cluster_.bw_dir(l, false);
        alloc.links.push_back(LinkState{l, fwd, rev});
        const double keep = 1.0 - std::min(1.0, rec.spec.traffic_fraction);
        cluster_.set_bw_dir(l, true, std::max(remos::kBwFloor, fwd * keep));
        cluster_.set_bw_dir(l, false, std::max(remos::kBwFloor, rev * keep));
      }
    }
  }
  rec.nodes = std::move(nodes);
  rec.ladder = level;
  rec.objective = objective;
  allocations_[rec.id] = std::move(alloc);
}

void SchedulerService::release(JobRecord& rec) {
  auto it = allocations_.find(rec.id);
  if (it == allocations_.end()) return;
  Allocation& alloc = it->second;
  // Exact inverse: restore the recorded pre-values in reverse order, so a
  // sensor touched twice within one allocation unwinds to its original
  // reading. Each mutation lands in the delta journal; the lane contexts
  // repair their caches fine-grainedly on the next round.
  for (auto li = alloc.links.rbegin(); li != alloc.links.rend(); ++li) {
    cluster_.set_bw_dir(li->link, true, li->fwd);
    cluster_.set_bw_dir(li->link, false, li->rev);
  }
  for (auto ni = alloc.node_cpu.rbegin(); ni != alloc.node_cpu.rend(); ++ni)
    cluster_.set_cpu(ni->first, ni->second);
  for (topo::NodeId n : rec.nodes) owner_[static_cast<std::size_t>(n)] = 0;
  allocations_.erase(it);
}

void SchedulerService::rescore(const select::SelectionContext& ctx) {
  // Which cached scores can the deltas since the last scan have moved? A
  // score is the minimum of the job's member terms (host cpu) and pair
  // terms (bandwidth along the route between two members). A host sensor
  // moves only the job holding the host. A link with an end of degree <= 1
  // lies only on routes that start or end at that end, so it moves only the
  // job holding it. Any other link, a structural change or a journal gap
  // can move every job.
  bool all = !score_epoch_;
  score_deltas_.clear();
  if (!all) all = !cluster_.deltas_since(*score_epoch_, score_deltas_);
  const auto unscore = [&](topo::NodeId n) {
    const std::uint64_t o = owner_[static_cast<std::size_t>(n)];
    if (o) allocations_.at(o - 1).scored = false;
  };
  for (std::size_t i = 0; !all && i < score_deltas_.size(); ++i) {
    const remos::Delta& d = score_deltas_[i];
    switch (d.kind) {
      case remos::DeltaKind::NodeLoad:
      case remos::DeltaKind::NodeMemory:
        unscore(d.node);
        break;
      case remos::DeltaKind::LinkBandwidth: {
        const topo::Link& lk = graph_->link(d.link);
        if (graph_->degree(lk.a) <= 1 || graph_->degree(lk.b) <= 1) {
          unscore(lk.a);
          unscore(lk.b);
        } else {
          all = true;
        }
        break;
      }
      default: all = true; break;  // structural
    }
  }
  score_epoch_ = cluster_.epoch();
  for (auto& [id, alloc] : allocations_) {
    if (alloc.scored && !all) continue;
    const JobRecord& rec = jobs_[id];
    const select::SelectionOptions opt = job_options(rec.spec, rec.ladder);
    alloc.score = api::criterion_score(
        rec.spec.criterion, select::evaluate_set(ctx, rec.nodes, opt));
    alloc.scored = true;
  }
}

void SchedulerService::maybe_rebalance() {
  if (!cfg_.rebalance_on_release || allocations_.empty()) return;
  SchedMetrics& m = metrics();
  Lane& ln = lane(0);

  // The release just freed capacity: give it to the worst-off running job
  // (lowest criterion score, ties to the lowest id — allocations_ iterates
  // in id order).
  rescore(*ln.live);
  auto worst = allocations_.begin();
  for (auto it = allocations_.begin(); it != allocations_.end(); ++it)
    if (it->second.score < worst->second.score) worst = it;

  JobRecord& rec = jobs_[worst->first];
  api::ReselectOptions ropt;
  ropt.max_migrations = cfg_.rebalance_budget;
  ropt.criterion = rec.spec.criterion;
  ropt.selection = job_options(rec.spec, rec.ladder);
  ++stats_.rebalance_attempts;
  m.rebalance_attempts.inc();
  // A reselect that provably keeps the job where it runs is not run.
  if (api::reselect_stays(*ln.live, rec.nodes, ropt)) return;
  // Eligible: free nodes plus the job's own (a migration target must not
  // evict anyone).
  ropt.selection.eligible.resize(owner_.size());
  for (std::size_t i = 0; i < owner_.size(); ++i)
    ropt.selection.eligible[i] = owner_[i] ? 0 : 1;
  for (topo::NodeId n : rec.nodes)
    ropt.selection.eligible[static_cast<std::size_t>(n)] = 1;

  const api::ReselectResult r = api::reselect(*ln.live, rec.nodes, ropt);
  // kept_current is the journal-trustworthy "nothing moved" signal: the
  // current placement stays in force and there is nothing to re-apply.
  if (r.kept_current || !r.feasible || r.migrations == 0) return;

  release(rec);
  ++rec.migrations;
  rec.note = "rebalanced: " + r.note;
  allocate(rec, r.nodes, r.objective_after, rec.ladder);
  stats_.rebalance_migrations += static_cast<std::uint64_t>(r.migrations);
  m.rebalance_migrations.inc(static_cast<std::uint64_t>(r.migrations));
  flight_->record(obs::FlightKind::Rebalance, now_, rec.id,
                  static_cast<std::uint64_t>(r.migrations), rec.spec.tenant);
  if (cfg_.job_trace) {
    auto it = trace_open_.find(rec.id);
    if (it != trace_open_.end()) {
      const std::uint32_t sp = cfg_.job_trace->span(
          rec.id, it->second.root, "rebalance", now_, now_);
      cfg_.job_trace->annotate(rec.id, sp, "migrations",
                               std::to_string(r.migrations));
    }
  }
}

std::uint64_t SchedulerService::state_digest() const {
  std::uint64_t h = util::kDigestSeed;
  for (const JobRecord& rec : jobs_) {
    h = fnv1a(h, rec.id);
    h = fnv1a(h, static_cast<std::uint64_t>(rec.state));
    h = fnv1a(h, static_cast<std::uint64_t>(rec.ladder));
    h = fnv1a_double(h, rec.submit_time);
    h = fnv1a_double(h, rec.start_time);
    h = fnv1a_double(h, rec.finish_time);
    h = fnv1a_double(h, rec.objective);
    h = fnv1a(h, rec.candidates);
    h = fnv1a(h, static_cast<std::uint64_t>(rec.infeasible_attempts));
    h = fnv1a(h, static_cast<std::uint64_t>(rec.migrations));
    h = fnv1a(h, rec.nodes.size());
    for (topo::NodeId n : rec.nodes)
      h = fnv1a(h, static_cast<std::uint64_t>(n));
  }
  for (std::uint64_t id : queue_) h = fnv1a(h, id);
  h = fnv1a_double(h, now_);
  h = fnv1a(h, cluster_.epoch());
  return h;
}

}  // namespace netsel::sched
