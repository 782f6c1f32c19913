// sched::SchedulerService — the placement-as-a-service loop. Covers the
// admit -> queue -> place -> release state machine transitions, admission
// rejection and queue timeouts, the bit-identity of state_digest() across
// thread counts (the bench_service headline contract), exact snapshot
// restore after drain(), the per-tenant degradation ladder under partial
// measurement coverage, the rebalance path honouring a kept_current
// reselect, the rejection of bad JobSpecs and arrival times at submit(),
// and the determinism of the JobStream workload generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"
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

  // node_scale grows template node counts (floor 1).
  WorkloadConfig scaled = cfg;
  scaled.node_scale = 2.0;
  JobStream s(scaled);
  int max_nodes = 0;
  for (int i = 0; i < 20; ++i) max_nodes = std::max(max_nodes, s.next().spec.nodes);
  EXPECT_GE(max_nodes, 8);  // fft's 4 nodes doubled
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
