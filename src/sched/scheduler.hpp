#pragma once
// sched::SchedulerService — placement as a long-running service.
//
// The paper frames node selection as a facility applications query; every
// entry point so far (NodeSelectionService, the experiment harness) answers
// one query against a static snapshot. This module is the production shape:
// a multi-tenant scheduler that ingests a continuous stream of job arrivals
// and departures, holds the shared mutable cluster state, and runs the
// slurmctld-style admit -> queue -> place -> release state machine:
//
//   submit ──▶ ADMIT ──────────────▶ QUEUED ─────▶ PLACING ──▶ RUNNING
//                │ queue full            │ waited >        │ infeasible │
//                ▼                       ▼ queue_timeout   ▼ this round ▼
//             REJECTED               TIMED_OUT         (requeued)   COMPLETED
//
// State and concurrency model:
//
//   * The cluster is ONE remos::NetworkSnapshot owned by the scheduler.
//     Placement commits and job releases mutate it through the ordinary
//     setters, so every change lands in the snapshot's typed remos::Delta
//     journal (PR 6) — nothing here invalidates a cache wholesale.
//   * Placements run on a fixed set of "lanes", each holding a long-lived
//     epoch-snapshotted select::SelectionContext over the cluster snapshot.
//     A scheduling round fans the queued window out over the lanes
//     (optionally on a util::ThreadPool); each lane catches up with the
//     snapshot by consuming the missed delta suffix (fine-grained row
//     repair), then speculates a placement against the round-start state.
//     Commits are then applied serially in queue order; a later job whose
//     speculative set collides with an earlier commit of the same round is
//     re-placed serially. Because every lane context is bit-identical to a
//     rebuilt one (the PR 6 oracle) and the commit order is fixed, a seeded
//     run is bit-identical at any thread count and any lane count.
//   * Per-tenant graceful degradation: each tenant carries an
//     api::DegradationPolicy; the scheduler compares the current
//     measurement coverage (set_measurement_coverage — in production wired
//     to the QueryQuality of the snapshot refresh) against the tenant's
//     thresholds. Full trusts the measured snapshot; Smoothed keeps the
//     measured ranking but drops the job's *fixed* requirements (stale
//     absolute readings should not hard-filter hosts); Prior places on the
//     capacity/zero-load prior snapshot (a second, never-mutated context).
//   * Release restores exactly the pre-placement sensor readings of the
//     job's exclusive resources (host cpu, access-link bandwidth), so a
//     drained scheduler leaves the snapshot bit-identical to its pre-run
//     state — asserted by bench_service --check.
//   * Optional churn-aware rebalancing: after a release, the worst-scoring
//     running job is re-placed through api::reselect under a migration
//     budget; a kept_current result keeps the job where it runs.
//
// Time is explicit simulated time (the sim::Engine idiom): run_until(t)
// processes events up to t. Determinism contract: everything observable —
// job states, placements, queue order, snapshot contents, epochs — is a
// pure function of (topology, initial snapshot state, submitted jobs,
// config thresholds). Wall-clock is only *measured* (placement-latency
// histograms and JobRecord::placement_seconds), never consulted.

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "api/appspec.hpp"
#include "api/reselect.hpp"
#include "api/service.hpp"
#include "remos/snapshot.hpp"
#include "select/context.hpp"
#include "select/options.hpp"
#include "topo/graph.hpp"

namespace netsel::util {
class ThreadPool;
}

namespace netsel::obs {
class TimeSeriesRecorder;
class JobTraceRecorder;
class FlightRecorder;
}  // namespace netsel::obs

namespace netsel::sched {

/// What a tenant submits: resource shape, service time, and the occupancy
/// the job imposes on the cluster state while it runs.
struct JobSpec {
  std::string tenant = "default";
  int nodes = 4;
  /// Simulated service time once placed (seconds).
  double duration = 60.0;
  select::Criterion criterion = select::Criterion::Balanced;
  double cpu_priority = 1.0;
  double bw_priority = 1.0;
  /// Fixed requirements (dropped at the Smoothed degradation rung).
  double min_bw_bps = 0.0;
  double min_cpu_fraction = 0.0;
  double min_free_memory_bytes = 0.0;
  /// Load average the job adds to each of its (exclusive) hosts while
  /// running — feeds back into later placements through the snapshot.
  double load = 1.0;
  /// Fraction of each host's access-link availability the job's steady
  /// traffic occupies while running (0 = compute-only job).
  double traffic_fraction = 0.5;
};

enum class JobState {
  Submitted,  ///< arrival event scheduled, not yet admitted
  Queued,     ///< admitted, waiting for a feasible placement
  Running,    ///< placed; departure event scheduled
  Completed,  ///< ran to completion, resources released
  Rejected,   ///< admission refused (queue full)
  TimedOut,   ///< waited in the queue past queue_timeout
};

const char* job_state_name(JobState s);

/// Full per-job accounting, kept for the life of the scheduler (ids are
/// dense indices into jobs()).
struct JobRecord {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::Submitted;
  double submit_time = 0.0;
  double start_time = -1.0;   ///< placement commit (sim time); -1 until placed
  double finish_time = -1.0;  ///< completion (sim time); -1 until completed
  /// Current placement (ascending ids) while Running / final while
  /// Completed; empty otherwise.
  std::vector<topo::NodeId> nodes;
  /// Degradation rung the placing decision used.
  api::DegradationLevel ladder = api::DegradationLevel::Full;
  /// Criterion score of the committed placement.
  double objective = 0.0;
  /// Eligible (untaken compute) candidates the placing decision saw.
  std::size_t candidates = 0;
  /// Wall-clock seconds the placement decision cost (speculation plus any
  /// conflict re-placement). Observational only.
  double placement_seconds = 0.0;
  /// Placement attempts that came back infeasible while queued.
  int infeasible_attempts = 0;
  /// Times this job was migrated by the rebalancer.
  int migrations = 0;
  std::string note;

  /// Sim-time the job waited in the queue (valid once Running or later).
  double wait_time() const {
    return start_time >= 0.0 ? start_time - submit_time : -1.0;
  }
};

/// Per-tenant scheduling policy.
struct TenantPolicy {
  /// Degradation thresholds compared against the cluster measurement
  /// coverage (api::DegradationPolicy's smoothed_below / prior_below; its
  /// forecaster members are unused here — the scheduler has no Remos to
  /// re-query, the rung instead picks the state view described above).
  api::DegradationPolicy degradation;
};

struct SchedulerConfig {
  /// Admission bound: an arrival finding this many jobs queued is rejected.
  std::size_t max_queue_depth = 256;
  /// Sim-seconds a queued job may wait before it times out (infinity =
  /// never).
  double queue_timeout = std::numeric_limits<double>::infinity();
  /// Queued jobs considered per scheduling round (FIFO window with
  /// backfill: a blocked head does not starve smaller jobs behind it).
  int backfill_window = 8;
  /// Scheduling cadence in sim-seconds. 0 (default) runs a round after
  /// every event instant — minimal queueing delay, but rounds rarely see
  /// more than one candidate. A positive interval batches arrivals the way
  /// a production scheduler loop ticks: rounds fire on a periodic tick
  /// while jobs are queued, so the speculative lanes fan out over real
  /// multi-candidate windows.
  double schedule_interval = 0.0;
  /// Long-lived SelectionContext lanes speculative placements fan out
  /// over. Results are independent of this value (and of the pool's
  /// worker count); it only bounds intra-round parallelism.
  int placement_lanes = 4;
  /// Worker pool for the speculative phase; null = serial (bit-identical).
  util::ThreadPool* pool = nullptr;
  /// Delta-journal capacity of the cluster snapshot: must cover the
  /// mutations between two uses of the *least recently used* lane, or that
  /// lane pays a full rebuild (correct either way).
  std::size_t journal_capacity = 65536;
  /// Rebalance after each release: re-place the worst-scoring running job
  /// through api::reselect under rebalance_budget migrations.
  bool rebalance_on_release = false;
  int rebalance_budget = 2;
  double rebalance_min_improvement = 0.0;
  /// Observational telemetry (DESIGN.md §13). All three are pure outputs:
  /// seeded runs are bit-identical with any combination attached or not.
  /// Time-series recorder sampled on its sim-time cadence by the event
  /// loop; register no sources yourself — the scheduler registers its
  /// queue-depth/jobs-running/placed/conflict/ladder curves on attach.
  obs::TimeSeriesRecorder* timeseries = nullptr;
  /// Per-job causal traces (trace id == job id), written only from the
  /// serial event loop.
  obs::JobTraceRecorder* job_trace = nullptr;
  /// Flight-recorder ring for the post-mortem tail; null uses the always-on
  /// process-wide obs::FlightRecorder::global().
  obs::FlightRecorder* flight = nullptr;
};

/// Aggregate counters, mirrored in the obs registry (sched.*).
struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t placed = 0;
  std::uint64_t completed = 0;
  std::uint64_t conflicts = 0;            ///< speculative commits re-placed
  std::uint64_t infeasible_attempts = 0;  ///< round attempts that failed
  std::uint64_t rebalance_attempts = 0;
  std::uint64_t rebalance_migrations = 0;
  std::size_t queued = 0;   ///< current queue depth
  std::size_t running = 0;  ///< currently placed jobs
};

/// Pre-register the scheduler's obs metrics (sched.* counters/gauges, the
/// placement-latency and queue-wait histograms) plus the api-layer metrics
/// it feeds (api.candidate_set_size, api.reselect.*) so exporters list them
/// with zero values before any job ran. Idempotent.
void register_scheduler_metrics();

class SchedulerService {
 public:
  /// The scheduler owns the cluster snapshot (a view of `g`, which must
  /// outlive the scheduler). Seed measured state through snapshot() before
  /// submitting, or leave the constructor's idle prior. Throws
  /// std::invalid_argument, before any state exists, unless
  /// placement_lanes and backfill_window are >= 1, queue_timeout is >= 0
  /// (+inf = never), schedule_interval is finite and >= 0, and
  /// rebalance_min_improvement is not NaN.
  explicit SchedulerService(const topo::TopologyGraph& g,
                            SchedulerConfig cfg = {});
  ~SchedulerService();
  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// The shared mutable cluster state. External churn (monitor refreshes,
  /// bench load) may mutate it between run_until calls; the lanes pick the
  /// deltas up journal-wise on the next round.
  remos::NetworkSnapshot& snapshot() { return cluster_; }
  const remos::NetworkSnapshot& snapshot() const { return cluster_; }
  const topo::TopologyGraph& graph() const { return *graph_; }

  /// Register (or replace) a tenant's policy. Unknown tenants run under
  /// TenantPolicy{}.
  void set_tenant_policy(const std::string& tenant, TenantPolicy policy);

  /// Cluster measurement coverage consulted by the degradation ladder
  /// (production: the QueryQuality coverage of the latest snapshot
  /// refresh). Finite values are clamped to [0, 1]; NaN throws
  /// std::invalid_argument.
  void set_measurement_coverage(double coverage);
  double measurement_coverage() const { return coverage_; }

  /// Enqueue an arrival at sim time `arrival_time` (>= now()). Returns the
  /// job id. The admit decision happens when the arrival fires. Throws
  /// std::invalid_argument, before any state changes, unless nodes >= 1,
  /// duration > 0, the arrival time is finite, load is finite and >= 0,
  /// traffic_fraction is in [0, 1], both priorities are finite and > 0, and
  /// the three fixed requirements are finite and >= 0.
  std::uint64_t submit(JobSpec spec, double arrival_time);
  /// Arrival at the current sim time.
  std::uint64_t submit(JobSpec spec) { return submit(std::move(spec), now_); }

  /// Process every event with time <= t (arrivals, departures, queue
  /// timeouts), running a scheduling round after each distinct event time,
  /// then advance now() to t.
  void run_until(double t);
  /// Run until no events remain (all submitted jobs reached a terminal
  /// state or are queued with nothing left to free resources for them).
  void drain();
  double now() const { return now_; }

  /// Jobs by id (dense; every job ever submitted).
  const std::vector<JobRecord>& jobs() const { return jobs_; }
  const JobRecord& job(std::uint64_t id) const { return jobs_.at(id); }
  /// Queued job ids in queue order (head first).
  std::vector<std::uint64_t> queued_jobs() const;

  SchedulerStats stats() const { return stats_; }

  /// FNV-1a digest over every decision-relevant field of every job record,
  /// the queue order, the sim clock and the snapshot epoch — the
  /// bit-identity probe bench_service compares across thread counts.
  /// Excludes wall-clock measurements.
  std::uint64_t state_digest() const;

 private:
  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  ///< FIFO tie-break at equal times
    enum class Kind { Arrival, Departure, Timeout, Tick } kind = Kind::Arrival;
    std::uint64_t job = 0;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  /// A placement lane: long-lived contexts over the live cluster snapshot
  /// and over the never-mutated capacity prior.
  struct Lane {
    std::unique_ptr<select::SelectionContext> live;
    std::unique_ptr<select::SelectionContext> prior;
  };
  /// One speculative placement decision (round-start state).
  struct Decision {
    bool feasible = false;
    std::vector<topo::NodeId> nodes;
    double objective = 0.0;
    api::DegradationLevel level = api::DegradationLevel::Full;
    std::size_t candidates = 0;
    double seconds = 0.0;
    std::string note;
  };

  void handle_arrival(std::uint64_t id);
  void handle_departure(std::uint64_t id);
  void handle_timeout(std::uint64_t id);
  /// One admit/queue/place round over the backfill window.
  void schedule_round();
  /// Speculative placement of `rec` against `taken` on `lane`.
  Decision place_job(const JobRecord& rec, Lane& lane,
                     const std::vector<char>& taken) const;
  select::SelectionOptions job_options(const JobSpec& spec,
                                       api::DegradationLevel level) const;
  api::DegradationLevel ladder_level(const std::string& tenant) const;
  /// Apply occupancy (cpu + access-link bandwidth) of a committed
  /// placement; records the exact pre-values for release.
  void allocate(JobRecord& rec, std::vector<topo::NodeId> nodes,
                double objective, api::DegradationLevel level);
  void release(JobRecord& rec);
  /// Post-release bounded-migration pass (cfg_.rebalance_on_release).
  void maybe_rebalance();
  void remove_queued(std::uint64_t id);
  /// Refresh stats_.queued / stats_.running and their obs gauges.
  void sync_depth_gauges();
  Lane& lane(std::size_t i);
  void push_event(double time, Event::Kind kind, std::uint64_t job);
  void note_ladder(const std::string& tenant, api::DegradationLevel level);
  /// Close a job's causal trace at a terminal state (drops the open-span
  /// bookkeeping); no-op without a tracer.
  void close_trace(std::uint64_t id, const char* terminal_span);

  const topo::TopologyGraph* graph_;
  SchedulerConfig cfg_;
  remos::NetworkSnapshot cluster_;
  remos::NetworkSnapshot prior_;  ///< capacity/zero-load, never mutated
  std::vector<Lane> lanes_;
  double now_ = 0.0;
  double coverage_ = 1.0;
  bool tick_pending_ = false;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
  std::deque<std::uint64_t> queue_;
  std::vector<JobRecord> jobs_;
  std::map<std::string, TenantPolicy> tenants_;
  /// Exact pre-placement sensor readings per running job (id-indexed
  /// sparse map): restored verbatim on release. Only the job's exclusive
  /// resources are touched (host cpu, the hosts' access links), so no two
  /// running jobs ever hold pre-values of the same sensor and release is an
  /// exact inverse regardless of interleaving.
  struct LinkState {
    topo::LinkId link;
    double fwd, rev;
  };
  struct Allocation {
    std::vector<std::pair<topo::NodeId, double>> node_cpu;
    std::vector<LinkState> links;
  };
  std::map<std::uint64_t, Allocation> allocations_;
  std::vector<char> taken_;  ///< per node id: 1 = held by a running job
  SchedulerStats stats_;
  // --- Telemetry (observational; none of it feeds state_digest) ---------
  obs::FlightRecorder* flight_ = nullptr;  ///< never null after construction
  /// Open span indices per live trace (only populated with a tracer).
  struct OpenSpans {
    std::uint32_t root = 0;
    std::uint32_t queue = 0;
    std::uint32_t run = 0;
    bool running = false;
  };
  std::map<std::uint64_t, OpenSpans> trace_open_;
  /// Last degradation rung a placement used (0/1/2) — the time-series
  /// ladder curve; and per-tenant last rung for flight-recorder
  /// transition events.
  int last_rung_ = 0;
  std::map<std::string, int> flight_rung_;
};

}  // namespace netsel::sched
