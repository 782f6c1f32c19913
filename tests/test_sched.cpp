// sched::SchedulerService — the placement-as-a-service loop. Covers the
// admit -> queue -> place -> release state machine transitions, admission
// rejection and queue timeouts, the bit-identity of state_digest() across
// thread counts, node-disjointness of concurrent jobs, exact snapshot
// restore after drain(), every job terminal after drain(), the per-tenant
// degradation ladder under partial and collapsed measurement coverage, the
// rebalance path honouring a kept_current reselect, the job a rebalance
// picks from cached scores being the one a fresh evaluate_set ranks worst
// after host, access-link and uplink writes and a journal overflow, the
// rebalance budgets 0 and -1, decisions unchanged by delta-journal
// overflow, the rejection of bad JobSpecs and arrival times at submit(), of
// bad tenant ladders at set_tenant_policy() and of bad time fields at
// construction, and the determinism of the JobStream workload generator.
// The service's throughput and latency are timed by benchmark/netsel_bench
// (service_batched, service_event).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "api/reselect.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "select/context.hpp"
#include "select/objective.hpp"
#include "sched/workload.hpp"
#include "topo/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace netsel::sched {
namespace {

topo::TopologyGraph small_fabric(std::uint64_t seed = 11) {
  return topo::fat_tree(topo::fat_tree_for_hosts(32, 8, 2.0, seed));
}

std::vector<topo::NodeId> computes(const topo::TopologyGraph& g) {
  std::vector<topo::NodeId> out;
  for (std::size_t i = 0; i < g.node_count(); ++i)
    if (g.is_compute(static_cast<topo::NodeId>(i)))
      out.push_back(static_cast<topo::NodeId>(i));
  return out;
}

WorkloadConfig pressured_workload(std::uint64_t seed) {
  WorkloadConfig w;
  w.seed = seed;
  w.arrival_rate = 2.0;  // high pressure on a small fabric: queueing fires
  return w;
}

TEST(SchedulerService, LifecycleTransitions) {
  auto g = small_fabric();
  SchedulerService sched(g);

  JobSpec spec;
  spec.nodes = 4;
  spec.duration = 50.0;
  const std::uint64_t id = sched.submit(spec, 5.0);

  sched.run_until(4.0);
  EXPECT_EQ(sched.job(id).state, JobState::Submitted);
  EXPECT_DOUBLE_EQ(sched.now(), 4.0);

  sched.run_until(5.0);  // arrival fires, default cadence places immediately
  const JobRecord& running = sched.job(id);
  EXPECT_EQ(running.state, JobState::Running);
  EXPECT_DOUBLE_EQ(running.start_time, 5.0);
  EXPECT_DOUBLE_EQ(running.wait_time(), 0.0);
  EXPECT_EQ(running.nodes.size(), 4u);
  EXPECT_TRUE(std::is_sorted(running.nodes.begin(), running.nodes.end()));
  EXPECT_GT(running.objective, 0.0);
  EXPECT_GT(running.candidates, 0u);
  EXPECT_EQ(sched.stats().running, 1u);

  sched.run_until(100.0);
  const JobRecord& done = sched.job(id);
  EXPECT_EQ(done.state, JobState::Completed);
  EXPECT_DOUBLE_EQ(done.finish_time, 55.0);
  EXPECT_EQ(done.nodes.size(), 4u);  // final placement kept on the record
  const SchedulerStats st = sched.stats();
  EXPECT_EQ(st.submitted, 1u);
  EXPECT_EQ(st.admitted, 1u);
  EXPECT_EQ(st.placed, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.running, 0u);
  EXPECT_EQ(st.queued, 0u);
}

TEST(SchedulerService, AdmissionRejectsWhenQueueFull) {
  auto g = small_fabric();
  SchedulerConfig cfg;
  cfg.max_queue_depth = 1;
  SchedulerService sched(g, cfg);

  JobSpec impossible;
  impossible.nodes = 1000;  // far more hosts than the fabric has
  const std::uint64_t first = sched.submit(impossible, 1.0);
  const std::uint64_t second = sched.submit(impossible, 2.0);
  sched.run_until(3.0);

  EXPECT_EQ(sched.job(first).state, JobState::Queued);
  EXPECT_GT(sched.job(first).infeasible_attempts, 0);
  EXPECT_EQ(sched.job(second).state, JobState::Rejected);
  EXPECT_FALSE(sched.job(second).note.empty());
  EXPECT_EQ(sched.stats().rejected, 1u);
  EXPECT_EQ(sched.queued_jobs(), std::vector<std::uint64_t>{first});
  EXPECT_GT(sched.stats().infeasible_attempts, 0u);
}

TEST(SchedulerService, QueueTimeoutFires) {
  auto g = small_fabric();
  SchedulerConfig cfg;
  cfg.queue_timeout = 10.0;
  SchedulerService sched(g, cfg);

  JobSpec impossible;
  impossible.nodes = 1000;
  const std::uint64_t id = sched.submit(impossible, 0.0);
  sched.run_until(9.0);
  EXPECT_EQ(sched.job(id).state, JobState::Queued);
  sched.run_until(10.0);
  const JobRecord& rec = sched.job(id);
  EXPECT_EQ(rec.state, JobState::TimedOut);
  EXPECT_DOUBLE_EQ(rec.finish_time, 10.0);
  EXPECT_DOUBLE_EQ(rec.wait_time(), -1.0);  // never started
  EXPECT_EQ(sched.stats().timed_out, 1u);
  EXPECT_TRUE(sched.queued_jobs().empty());
}

// The headline contract: a seeded run is a pure function of (topology,
// initial state, submitted jobs, config) — the worker pool and its thread
// count must not be observable in the state digest.
TEST(SchedulerService, DigestBitIdenticalAcrossThreadCounts) {
  auto g = small_fabric(23);
  auto run_once = [&](util::ThreadPool* pool) {
    SchedulerConfig cfg;
    cfg.placement_lanes = 3;
    cfg.backfill_window = 6;
    cfg.schedule_interval = 1.0;  // batched rounds: conflicts can fire
    cfg.rebalance_on_release = true;
    cfg.rebalance_budget = 1;
    cfg.pool = pool;
    SchedulerService sched(g, cfg);
    remos::apply_synthetic_load(sched.snapshot(), 77);
    JobStream stream(pressured_workload(5));
    stream.feed(sched, 40);
    sched.drain();
    EXPECT_GT(sched.stats().placed, 0u);
    return sched.state_digest();
  };

  const std::uint64_t serial = run_once(nullptr);
  util::ThreadPool two(2);
  util::ThreadPool four(4);
  EXPECT_EQ(serial, run_once(&two));
  EXPECT_EQ(serial, run_once(&four));
}

// Journal overflow inside the scheduler: a lane whose epoch the cluster
// snapshot's delta journal no longer covers drops its caches and rebuilds.
// That path must change no decision. A high-pressure scenario (128 hosts,
// 3 lanes, window 6, queue 24, timeout 600 s, 80 jobs) runs with journals
// of 1, 4 and 16 deltas, serial and on a 2-worker pool, and each run must
// give the default run's digest and leave every job terminal after
// drain(); the registry shows that the rebuild path ran.
TEST(SchedulerService, JournalOverflowChangesNoDecision) {
  constexpr std::uint64_t kSeed = 4242;
  auto g = topo::fat_tree(topo::fat_tree_for_hosts(128, 16, 2.0, kSeed));
  obs::set_enabled(true);
  struct Run {
    std::uint64_t digest;
    std::uint64_t invalidations;
  };
  auto run_once = [&](std::size_t journal, util::ThreadPool* pool) {
    SchedulerConfig cfg;
    cfg.placement_lanes = 3;
    cfg.backfill_window = 6;
    cfg.schedule_interval = 1.0;
    cfg.max_queue_depth = 24;
    cfg.queue_timeout = 600.0;
    cfg.rebalance_on_release = true;
    cfg.rebalance_budget = 1;
    cfg.pool = pool;
    SchedulerService sched(g, cfg);
    if (journal > 0) sched.snapshot().set_delta_journal_capacity(journal);
    remos::apply_synthetic_load(sched.snapshot(), kSeed + 7);
    obs::Registry::global().reset();
    JobStream stream(pressured_workload(kSeed));
    stream.feed(sched, 80);
    sched.drain();
    EXPECT_GT(sched.stats().placed, 0u);
    for (const JobRecord& rec : sched.jobs())
      EXPECT_TRUE(rec.state == JobState::Completed ||
                  rec.state == JobState::Rejected ||
                  rec.state == JobState::TimedOut)
          << "job " << rec.id << " " << job_state_name(rec.state)
          << " after drain()";
    return Run{sched.state_digest(),
               obs::Registry::global()
                   .counter("select.ctx.invalidations")
                   .value()};
  };

  const Run reference = run_once(0, nullptr);
  util::ThreadPool two(2);
  util::ThreadPool* const pools[] = {nullptr, &two};
  for (std::size_t journal : {1u, 4u, 16u}) {
    for (util::ThreadPool* pool : pools) {
      const Run r = run_once(journal, pool);
      const std::string what = "journal " + std::to_string(journal) +
                               (pool ? " pooled" : " serial");
      EXPECT_EQ(r.digest, reference.digest) << what;
      EXPECT_GT(r.invalidations, reference.invalidations) << what;
    }
  }
  obs::Registry::global().reset();
  obs::set_enabled(false);
}

TEST(SchedulerService, DrainRestoresSnapshotExactly) {
  auto g = small_fabric(31);
  remos::NetworkSnapshot reference(g);
  remos::apply_synthetic_load(reference, 99);

  SchedulerConfig cfg;
  cfg.schedule_interval = 0.5;
  cfg.rebalance_on_release = true;
  SchedulerService sched(g, cfg);
  remos::apply_synthetic_load(sched.snapshot(), 99);
  JobStream stream(pressured_workload(9));
  stream.feed(sched, 30);
  sched.drain();
  ASSERT_GT(sched.stats().placed, 0u);
  EXPECT_EQ(sched.stats().running, 0u);

  // Release is an exact inverse of allocate: every sensor reading is back
  // to its pre-run value, bit for bit.
  for (std::size_t n = 0; n < g.node_count(); ++n)
    EXPECT_EQ(sched.snapshot().cpu(static_cast<topo::NodeId>(n)),
              reference.cpu(static_cast<topo::NodeId>(n)))
        << "cpu not restored on node " << n;
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    const auto id = static_cast<topo::LinkId>(l);
    EXPECT_EQ(sched.snapshot().bw_dir(id, true), reference.bw_dir(id, true))
        << "fwd bw not restored on link " << l;
    EXPECT_EQ(sched.snapshot().bw_dir(id, false), reference.bw_dir(id, false))
        << "rev bw not restored on link " << l;
  }
}

TEST(SchedulerService, ConcurrentJobsNeverShareNodes) {
  auto g = small_fabric(37);
  SchedulerConfig cfg;
  cfg.schedule_interval = 1.0;
  cfg.backfill_window = 8;
  SchedulerService sched(g, cfg);
  JobStream stream(pressured_workload(3));
  stream.feed(sched, 30);
  sched.drain();

  const auto& jobs = sched.jobs();
  for (std::size_t a = 0; a < jobs.size(); ++a) {
    if (jobs[a].start_time < 0.0 || jobs[a].migrations > 0) continue;
    for (std::size_t b = a + 1; b < jobs.size(); ++b) {
      if (jobs[b].start_time < 0.0 || jobs[b].migrations > 0) continue;
      if (jobs[a].finish_time <= jobs[b].start_time ||
          jobs[b].finish_time <= jobs[a].start_time)
        continue;  // disjoint in time
      for (topo::NodeId n : jobs[a].nodes)
        EXPECT_FALSE(std::count(jobs[b].nodes.begin(), jobs[b].nodes.end(), n))
            << "jobs " << jobs[a].id << " and " << jobs[b].id
            << " overlap in time and share node " << n;
    }
  }
}

TEST(SchedulerService, LadderFollowsTenantPolicyAndCoverage) {
  auto g = small_fabric(41);
  SchedulerService sched(g);

  TenantPolicy tolerant;  // falls to Smoothed early, resists Prior
  tolerant.degradation.smoothed_below = 0.9;
  tolerant.degradation.prior_below = 0.2;
  TenantPolicy strict;  // abandons measurements quickly
  strict.degradation.smoothed_below = 0.9;
  strict.degradation.prior_below = 0.8;
  sched.set_tenant_policy("tolerant", tolerant);
  sched.set_tenant_policy("strict", strict);

  JobSpec spec;
  spec.nodes = 3;
  spec.duration = 5.0;
  spec.tenant = "tolerant";
  // An impossible fixed requirement: only placeable if the Smoothed rung
  // drops it, as the ladder contract says it must.
  spec.min_cpu_fraction = 2.0;
  sched.set_measurement_coverage(0.5);
  const std::uint64_t smoothed_id = sched.submit(spec, 1.0);
  JobSpec strict_spec;
  strict_spec.nodes = 3;
  strict_spec.duration = 5.0;
  strict_spec.tenant = "strict";
  const std::uint64_t prior_id = sched.submit(strict_spec, 1.0);
  sched.run_until(2.0);

  EXPECT_EQ(sched.job(smoothed_id).state, JobState::Running);
  EXPECT_EQ(sched.job(smoothed_id).ladder, api::DegradationLevel::Smoothed);
  EXPECT_EQ(sched.job(prior_id).state, JobState::Running);
  EXPECT_EQ(sched.job(prior_id).ladder, api::DegradationLevel::Prior);

  // Restored coverage: back to the Full rung, fixed requirements enforced
  // again (the impossible one now blocks placement).
  sched.set_measurement_coverage(1.0);
  const std::uint64_t full_id = sched.submit(strict_spec, 20.0);
  const std::uint64_t blocked_id = [&] {
    JobSpec s = spec;
    s.tenant = "strict";
    return sched.submit(s, 20.0);
  }();
  sched.run_until(21.0);
  EXPECT_EQ(sched.job(full_id).ladder, api::DegradationLevel::Full);
  EXPECT_EQ(sched.job(full_id).state, JobState::Running);
  EXPECT_EQ(sched.job(blocked_id).state, JobState::Queued);
  EXPECT_GT(sched.job(blocked_id).infeasible_attempts, 0);

  // A tenant with no policy of its own reads the default ladder: collapsed
  // coverage, below its prior_below, still places, on the prior rung.
  sched.set_measurement_coverage(0.1);
  JobSpec default_spec;
  default_spec.nodes = 3;
  default_spec.duration = 5.0;
  const std::uint64_t default_id = sched.submit(default_spec, 40.0);
  sched.run_until(41.0);
  EXPECT_EQ(sched.job(default_id).state, JobState::Running);
  EXPECT_EQ(sched.job(default_id).ladder, api::DegradationLevel::Prior);
}

// A rebalance whose reselect comes back kept_current (the unconstrained
// selection is infeasible under the job's requirements and eligibility)
// must leave the job exactly where it runs — no release/re-allocate cycle,
// no migration counted.
TEST(SchedulerService, RebalanceHonoursKeptCurrent) {
  auto g = small_fabric(47);
  const auto hosts = computes(g);
  ASSERT_GE(hosts.size(), 8u);
  const int big = static_cast<int>(hosts.size() * 2 / 3);
  const int small = static_cast<int>(hosts.size()) - big;

  SchedulerConfig cfg;
  cfg.rebalance_on_release = true;
  cfg.rebalance_budget = 2;
  SchedulerService sched(g, cfg);  // idle cluster: every host at cpu 1.0

  // Job A holds most of the fabric with a cpu requirement its *own* loaded
  // hosts no longer meet (1 / (1 + load) = 0.5 < 0.55): at rebalance time
  // every member is ineligible, and the freed remainder of the fabric is
  // too small to refill — reselect keeps the current placement.
  JobSpec a;
  a.nodes = big;
  a.duration = 1000.0;
  a.min_cpu_fraction = 0.55;
  a.load = 1.0;
  const std::uint64_t a_id = sched.submit(a, 0.0);

  JobSpec b;
  b.nodes = small;
  b.duration = 10.0;
  const std::uint64_t b_id = sched.submit(b, 1.0);

  sched.run_until(2.0);
  ASSERT_EQ(sched.job(a_id).state, JobState::Running);
  ASSERT_EQ(sched.job(b_id).state, JobState::Running);
  const std::vector<topo::NodeId> a_nodes = sched.job(a_id).nodes;

  sched.run_until(20.0);  // B departs; its release triggers the rebalance
  EXPECT_EQ(sched.job(b_id).state, JobState::Completed);
  const SchedulerStats st = sched.stats();
  EXPECT_GE(st.rebalance_attempts, 1u);
  EXPECT_EQ(st.rebalance_migrations, 0u);
  EXPECT_EQ(sched.job(a_id).migrations, 0);
  EXPECT_EQ(sched.job(a_id).nodes, a_nodes);
  EXPECT_EQ(sched.job(a_id).state, JobState::Running);
}

// ---------------------------------------------------------------------------
// Rebalance: cached job scores and the skipped reselect. The scheduler keeps
// each running job's criterion score and rescores only what the journal
// says can have moved; the job it rebalances must still be the one a fresh
// evaluate_set ranks worst. Each scenario changes the cluster between two
// run_until calls and then lets a departure rebalance.
// ---------------------------------------------------------------------------

/// One core switch over 16 edge switches with one host each. A route
/// between two hosts crosses their access links and their edge switches'
/// uplinks, so a write on one uplink moves the pair terms of one host only,
/// yet the uplink has no end of degree <= 1.
topo::TopologyGraph star_of_edges() {
  topo::FatTreeOptions o;
  o.edge_switches = 16;
  o.hosts_per_edge = 1;
  o.core_switches = 1;
  o.seed = 61;
  return topo::fat_tree(o);
}

/// The running job (other than `departing`) with the lowest criterion score
/// on a fresh context, ties to the lowest id.
std::uint64_t fresh_worst(const SchedulerService& sched,
                          std::uint64_t departing) {
  select::SelectionContext ctx(sched.snapshot());
  std::uint64_t worst = 0;
  double worst_score = std::numeric_limits<double>::infinity();
  for (const JobRecord& rec : sched.jobs()) {
    if (rec.state != JobState::Running || rec.id == departing) continue;
    select::SelectionOptions opt;
    opt.num_nodes = rec.spec.nodes;
    opt.cpu_priority = rec.spec.cpu_priority;
    opt.bw_priority = rec.spec.bw_priority;
    const double s = api::criterion_score(
        rec.spec.criterion, select::evaluate_set(ctx, rec.nodes, opt));
    if (s < worst_score) {
      worst = rec.id;
      worst_score = s;
    }
  }
  return worst;
}

/// Three long jobs A, B, C and two short ones on the idle star, rebalancing
/// under `budget`. Every job runs 3 nodes from t = 0; the first short job's
/// departure (t = 10) scores every running job while all of them tie. A
/// test then changes the cluster (t = 15) and lets the second short job's
/// departure (t = 30) rebalance.
struct RebalanceScenario {
  topo::TopologyGraph g = star_of_edges();
  SchedulerService sched;
  std::vector<std::uint64_t> longs;
  std::uint64_t last_short = 0;

  explicit RebalanceScenario(int budget, JobSpec spec = {})
      : sched(g, config(budget)) {
    spec.nodes = 3;
    spec.duration = 1000.0;
    for (int i = 0; i < 3; ++i) longs.push_back(sched.submit(spec, 0.0));
    JobSpec brief;
    brief.nodes = 3;
    brief.duration = 10.0;
    sched.submit(brief, 0.0);
    brief.duration = 30.0;
    last_short = sched.submit(brief, 0.0);
    sched.run_until(15.0);
  }
  static SchedulerConfig config(int budget) {
    SchedulerConfig cfg;
    cfg.rebalance_on_release = true;
    cfg.rebalance_budget = budget;
    return cfg;
  }
  /// First host of long job i and its access link.
  topo::NodeId host(int i) const { return sched.job(longs[i]).nodes[0]; }
  topo::LinkId access(int i) const { return g.links_of(host(i))[0]; }
  /// Run past the second short job's departure; the long jobs it migrated.
  std::vector<std::uint64_t> migrated_at_last_departure() {
    std::vector<int> before;
    for (std::uint64_t id : longs) before.push_back(sched.job(id).migrations);
    sched.run_until(35.0);
    EXPECT_EQ(sched.job(last_short).state, JobState::Completed);
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < longs.size(); ++i)
      if (sched.job(longs[i]).migrations != before[i]) out.push_back(longs[i]);
    return out;
  }
};

/// Turns the obs registry on, zeroed, for one test so that its counters can
/// be read, and restores the disabled default afterwards.
struct ScopedRegistry {
  ScopedRegistry() {
    obs::set_enabled(true);
    obs::Registry::global().reset();
  }
  ~ScopedRegistry() {
    obs::Registry::global().reset();
    obs::set_enabled(false);
  }
  std::uint64_t operator()(const char* name) const {
    return obs::Registry::global().counter(name).value();
  }
};

TEST(SchedulerRebalance, HostLoadWriteRescoresItsJob) {
  RebalanceScenario sc(2);
  sc.sched.snapshot().set_loadavg(sc.host(1), 99.0);
  const std::uint64_t worst = fresh_worst(sc.sched, sc.last_short);
  EXPECT_EQ(worst, sc.longs[1]);
  EXPECT_EQ(sc.migrated_at_last_departure(),
            std::vector<std::uint64_t>{worst});
}

TEST(SchedulerRebalance, AccessLinkWriteRescoresItsJob) {
  RebalanceScenario sc(2);
  const topo::LinkId l = sc.access(2);
  sc.sched.snapshot().set_bw(l, 0.01 * sc.sched.snapshot().maxbw(l));
  const std::uint64_t worst = fresh_worst(sc.sched, sc.last_short);
  EXPECT_EQ(worst, sc.longs[2]);
  EXPECT_EQ(sc.migrated_at_last_departure(),
            std::vector<std::uint64_t>{worst});
}

TEST(SchedulerRebalance, SwitchLinkWriteRescoresEveryJob) {
  RebalanceScenario sc(2);
  // The uplink of the edge switch above long job 1's first host.
  const topo::NodeId edge = sc.g.other_end(sc.access(1), sc.host(1));
  topo::LinkId uplink = topo::kInvalidLink;
  for (topo::LinkId l : sc.g.links_of(edge))
    if (l != sc.access(1)) uplink = l;
  ASSERT_NE(uplink, topo::kInvalidLink);
  ASSERT_GT(sc.g.degree(sc.g.other_end(uplink, edge)), 1u);
  ASSERT_GT(sc.g.degree(edge), 1u);
  sc.sched.snapshot().set_bw(uplink, 0.01 * sc.sched.snapshot().maxbw(uplink));
  const std::uint64_t worst = fresh_worst(sc.sched, sc.last_short);
  EXPECT_EQ(worst, sc.longs[1]);
  EXPECT_EQ(sc.migrated_at_last_departure(),
            std::vector<std::uint64_t>{worst});
}

TEST(SchedulerRebalance, JournalOverflowRescoresEveryJob) {
  RebalanceScenario sc(2);
  // Too small for the departure's own restore writes: the scan finds a gap.
  sc.sched.snapshot().set_delta_journal_capacity(2);
  sc.sched.snapshot().set_loadavg(sc.host(2), 99.0);
  const std::uint64_t worst = fresh_worst(sc.sched, sc.last_short);
  EXPECT_EQ(worst, sc.longs[2]);
  EXPECT_EQ(sc.migrated_at_last_departure(),
            std::vector<std::uint64_t>{worst});
}

// rebalance_budget 0 moves a job only to replace members that became
// ineligible, and without one it does not run reselect at all.
TEST(SchedulerRebalance, BudgetZeroMovesOnlyForcedMembers) {
  ScopedRegistry counters;
  {
    RebalanceScenario sc(0);
    sc.sched.snapshot().set_loadavg(sc.host(1), 99.0);
    ASSERT_EQ(fresh_worst(sc.sched, sc.last_short), sc.longs[1]);
    EXPECT_TRUE(sc.migrated_at_last_departure().empty());
    EXPECT_EQ(sc.sched.stats().rebalance_attempts, 2u);
    EXPECT_EQ(counters("api.reselect.calls"), 0u);
  }
  // Each long job needs cpu >= 0.3 and sits at 0.5 under its own load; the
  // write leaves one of its hosts at 0.01, so that member is forced out.
  JobSpec needy;
  needy.min_cpu_fraction = 0.3;
  RebalanceScenario sc(0, needy);
  const topo::NodeId loaded = sc.host(1);
  sc.sched.snapshot().set_loadavg(loaded, 99.0);
  EXPECT_EQ(sc.migrated_at_last_departure(),
            std::vector<std::uint64_t>{sc.longs[1]});
  const JobRecord& moved = sc.sched.job(sc.longs[1]);
  EXPECT_EQ(moved.migrations, 1);
  EXPECT_FALSE(std::count(moved.nodes.begin(), moved.nodes.end(), loaded));
  EXPECT_EQ(sc.sched.stats().rebalance_migrations, 1u);
}

// A negative rebalance_budget is reselect's unbounded mode: the job adopts
// the unconstrained optimum, so no rebalance can skip reselect. Under a
// bounded budget the tied scan at t = 10 is skipped.
TEST(SchedulerRebalance, NegativeBudgetNeverSkipsReselect) {
  ScopedRegistry counters;
  for (int budget : {-1, 2}) {
    obs::Registry::global().reset();
    RebalanceScenario sc(budget);
    sc.sched.snapshot().set_loadavg(sc.host(0), 99.0);
    sc.sched.drain();
    const std::uint64_t attempts = sc.sched.stats().rebalance_attempts;
    ASSERT_GT(attempts, 2u);
    if (budget < 0)
      EXPECT_EQ(counters("api.reselect.calls"), attempts);
    else
      EXPECT_LT(counters("api.reselect.calls"), attempts);
  }
}

// ---------------------------------------------------------------------------
// Input validation: a bad JobSpec or arrival time is refused at submit(),
// before any state changes.
// ---------------------------------------------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A scheduler with one job running, so there is state to disturb.
struct BusyScheduler {
  topo::TopologyGraph g = small_fabric(53);
  SchedulerService sched{g};
  BusyScheduler() {
    JobSpec spec;
    spec.nodes = 4;
    spec.duration = 50.0;
    sched.submit(spec, 1.0);
    sched.run_until(2.0);
  }

  /// submit(spec, t) throws std::invalid_argument and leaves the digest,
  /// the job list and the snapshot epoch as they were.
  void expect_rejected(const JobSpec& spec, double t, const std::string& what) {
    const std::uint64_t digest = sched.state_digest();
    const std::size_t jobs = sched.jobs().size();
    const std::uint64_t epoch = sched.snapshot().epoch();
    EXPECT_THROW(sched.submit(spec, t), std::invalid_argument) << what;
    EXPECT_EQ(sched.state_digest(), digest) << what;
    EXPECT_EQ(sched.jobs().size(), jobs) << what;
    EXPECT_EQ(sched.snapshot().epoch(), epoch) << what;
  }

  /// After the rejections the scheduler still places and drains a job.
  /// Skipped once a rejection failed: an accepted NaN arrival would make
  /// drain() loop forever.
  void expect_still_serves() {
    if (::testing::Test::HasFailure()) return;
    JobSpec ok;
    ok.nodes = 2;
    ok.duration = 5.0;
    const std::uint64_t id = sched.submit(ok, 3.0);
    sched.drain();
    EXPECT_EQ(sched.job(id).state, JobState::Completed);
    EXPECT_EQ(sched.job(0).state, JobState::Completed);
  }
};

TEST(SubmitValidation, ArrivalTimeMustBeFinite) {
  BusyScheduler b;
  for (double t : {kNaN, kInf, -kInf})
    b.expect_rejected(JobSpec{}, t, "arrival " + std::to_string(t));
  b.expect_still_serves();
}

TEST(SubmitValidation, LoadMustBeFiniteAndNonNegative) {
  BusyScheduler b;
  for (double load : {kNaN, kInf, -1.0}) {
    JobSpec spec;
    spec.load = load;
    b.expect_rejected(spec, 3.0, "load " + std::to_string(load));
  }
  b.expect_still_serves();
}

TEST(SubmitValidation, TrafficFractionMustBeInUnitInterval) {
  BusyScheduler b;
  for (double f : {kNaN, -0.25, 1.5, kInf}) {
    JobSpec spec;
    spec.traffic_fraction = f;
    b.expect_rejected(spec, 3.0, "traffic_fraction " + std::to_string(f));
  }
  b.expect_still_serves();
}

TEST(SubmitValidation, PrioritiesMustBeFiniteAndPositive) {
  BusyScheduler b;
  for (double p : {0.0, -1.0, kNaN, kInf}) {
    JobSpec cpu;
    cpu.cpu_priority = p;
    b.expect_rejected(cpu, 3.0, "cpu_priority " + std::to_string(p));
    JobSpec bw;
    bw.bw_priority = p;
    b.expect_rejected(bw, 3.0, "bw_priority " + std::to_string(p));
  }
  b.expect_still_serves();
}

TEST(SubmitValidation, RequirementsMustBeFiniteAndNonNegative) {
  BusyScheduler b;
  for (double v : {kNaN, kInf, -1.0}) {
    JobSpec bw;
    bw.min_bw_bps = v;
    b.expect_rejected(bw, 3.0, "min_bw_bps " + std::to_string(v));
    JobSpec cpu;
    cpu.min_cpu_fraction = v;
    b.expect_rejected(cpu, 3.0, "min_cpu_fraction " + std::to_string(v));
    JobSpec mem;
    mem.min_free_memory_bytes = v;
    b.expect_rejected(mem, 3.0, "min_free_memory_bytes " + std::to_string(v));
  }
  b.expect_still_serves();
}

TEST(SubmitValidation, CoverageRejectsNaNAndClampsFiniteValues) {
  BusyScheduler b;
  b.sched.set_measurement_coverage(0.5);
  const std::uint64_t digest = b.sched.state_digest();
  EXPECT_THROW(b.sched.set_measurement_coverage(kNaN), std::invalid_argument);
  EXPECT_DOUBLE_EQ(b.sched.measurement_coverage(), 0.5);
  EXPECT_EQ(b.sched.state_digest(), digest);
  b.sched.set_measurement_coverage(-3.0);
  EXPECT_DOUBLE_EQ(b.sched.measurement_coverage(), 0.0);
  b.sched.set_measurement_coverage(7.0);
  EXPECT_DOUBLE_EQ(b.sched.measurement_coverage(), 1.0);
  b.sched.set_measurement_coverage(kInf);
  EXPECT_DOUBLE_EQ(b.sched.measurement_coverage(), 1.0);
}

// A tenant ladder the service would refuse (inverted) or cannot read (a NaN
// threshold) is refused before any state changes: the tenant keeps the
// policy it had. Thresholds above 1 stay legal and force degradation.
TEST(SchedulerService, TenantPolicyRejectsAnInvertedOrNaNLadder) {
  auto g = small_fabric(41);
  SchedulerService sched(g);
  TenantPolicy strict;
  strict.degradation.smoothed_below = 0.9;
  strict.degradation.prior_below = 0.8;
  sched.set_tenant_policy("t", strict);

  TenantPolicy inverted;
  inverted.degradation.smoothed_below = 0.3;
  inverted.degradation.prior_below = 0.8;
  EXPECT_THROW(sched.set_tenant_policy("t", inverted), std::invalid_argument);
  TenantPolicy nan_smoothed;
  nan_smoothed.degradation.smoothed_below = kNaN;
  EXPECT_THROW(sched.set_tenant_policy("t", nan_smoothed),
               std::invalid_argument);
  TenantPolicy nan_prior;
  nan_prior.degradation.prior_below = kNaN;
  EXPECT_THROW(sched.set_tenant_policy("t", nan_prior), std::invalid_argument);
  TenantPolicy forced;
  forced.degradation.smoothed_below = 1.2;
  forced.degradation.prior_below = 1.1;
  EXPECT_NO_THROW(sched.set_tenant_policy("forced", forced));

  // At coverage 0.85 "t" still reads its strict ladder (Smoothed; the
  // inverted one would give Prior), and "forced" falls to Prior.
  sched.set_measurement_coverage(0.85);
  JobSpec spec;
  spec.nodes = 3;
  spec.duration = 5.0;
  spec.tenant = "t";
  const std::uint64_t t_id = sched.submit(spec, 1.0);
  spec.tenant = "forced";
  const std::uint64_t forced_id = sched.submit(spec, 1.0);
  sched.run_until(2.0);
  EXPECT_EQ(sched.job(t_id).state, JobState::Running);
  EXPECT_EQ(sched.job(t_id).ladder, api::DegradationLevel::Smoothed);
  EXPECT_EQ(sched.job(forced_id).state, JobState::Running);
  EXPECT_EQ(sched.job(forced_id).ladder, api::DegradationLevel::Prior);
}

// ---------------------------------------------------------------------------
// Config validation: a bad time field is refused by the constructor. A
// negative queue_timeout would time jobs out before their submission, and a
// NaN schedule_interval would never run a round.
// ---------------------------------------------------------------------------

void expect_config_rejected(const SchedulerConfig& cfg,
                            const std::string& what) {
  const auto g = small_fabric();
  EXPECT_THROW(SchedulerService(g, cfg), std::invalid_argument) << what;
}

void expect_config_accepted(const SchedulerConfig& cfg,
                            const std::string& what) {
  const auto g = small_fabric();
  EXPECT_NO_THROW(SchedulerService(g, cfg)) << what;
}

TEST(SchedulerConfigValidation, QueueTimeoutMustBeNonNegative) {
  for (double t : {-5.0, -kInf, kNaN, 0.0, kInf}) {
    SchedulerConfig cfg;
    cfg.queue_timeout = t;
    const std::string what = "queue_timeout " + std::to_string(t);
    // 0 times a job out at its arrival instant; +inf never times it out.
    if (t >= 0.0)
      expect_config_accepted(cfg, what);
    else
      expect_config_rejected(cfg, what);
  }
}

TEST(SchedulerConfigValidation, ScheduleIntervalMustBeFiniteAndNonNegative) {
  for (double dt : {-1.0, kNaN, kInf, 0.0, 2.0}) {
    SchedulerConfig cfg;
    cfg.schedule_interval = dt;
    const std::string what = "schedule_interval " + std::to_string(dt);
    if (dt >= 0.0 && dt < kInf)
      expect_config_accepted(cfg, what);
    else
      expect_config_rejected(cfg, what);
  }
}

TEST(JobStream, DeterministicAndShaped) {
  WorkloadConfig cfg;
  cfg.seed = 17;
  cfg.arrival_rate = 0.5;
  JobStream a(cfg);
  JobStream b(cfg);

  const std::set<std::string> tenants{"fft", "airshed", "mri"};
  double prev = 0.0;
  for (int i = 0; i < 50; ++i) {
    const JobStream::Arrival x = a.next();
    const JobStream::Arrival y = b.next();
    EXPECT_EQ(x.time, y.time);
    EXPECT_EQ(x.spec.tenant, y.spec.tenant);
    EXPECT_EQ(x.spec.nodes, y.spec.nodes);
    EXPECT_EQ(x.spec.duration, y.spec.duration);
    EXPECT_GT(x.time, prev);  // strictly increasing arrival times
    prev = x.time;
    EXPECT_TRUE(tenants.count(x.spec.tenant)) << x.spec.tenant;
    EXPECT_GE(x.spec.nodes, 1);
  }

  // A different seed names a different trace.
  WorkloadConfig other = cfg;
  other.seed = 18;
  JobStream c(other);
  bool differs = false;
  JobStream fresh(cfg);
  for (int i = 0; i < 20 && !differs; ++i)
    differs = c.next().time != fresh.next().time;
  EXPECT_TRUE(differs);
}

TEST(JobStream, ValidatesConfig) {
  WorkloadConfig bad_rate;
  bad_rate.arrival_rate = 0.0;
  EXPECT_THROW(JobStream{bad_rate}, std::invalid_argument);

  WorkloadConfig bad_weight;
  bad_weight.mix = paper_mix();
  bad_weight.mix[0].weight = -1.0;
  EXPECT_THROW(JobStream{bad_weight}, std::invalid_argument);

  WorkloadConfig zero_weight;
  zero_weight.mix = paper_mix();
  for (JobTemplate& t : zero_weight.mix) t.weight = 0.0;
  EXPECT_THROW(JobStream{zero_weight}, std::invalid_argument);
}

}  // namespace
}  // namespace netsel::sched
