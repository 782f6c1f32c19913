// Placement-as-a-service: sustained scheduler throughput and placement
// latency under an open-loop Poisson arrival stream on the 10,000-host
// fat-tree.
//
// The scheduler (sched::SchedulerService) holds the shared cluster snapshot
// and runs the admit -> queue -> place -> release state machine; the
// workload is the appsim-derived paper mix (FFT / Airshed / MRI shapes).
// Every run happens twice in one process — once fanned out over a thread
// pool, once in the serial reference mode — and the two state digests must
// be bit-identical: the speculative placement lanes are partitioned by
// config, not by thread count, and every lane context catches up through
// the snapshot's delta journal (the run_table1 idiom).
//
// Headline contract (the exit status): the pooled and serial runs are
// bit-identical, and the scheduler places at least one job.
//
// Usage: bench_service [jobs] [seed] [--csv] [--check] [--threads N]
//                      [--metrics-json PATH] [--chrome-trace PATH]
//                      [--timeseries-json PATH] [--timeseries-csv PATH]
//                      [--job-trace PATH]
// Defaults: 300 jobs, seed 4242, hardware threads.
//   --check          CI smoke: a small fat-tree, serial vs 2-thread digest
//                    equality, exclusive-allocation and exact-snapshot-
//                    restore invariants, rebalance and timeout paths
//                    exercised, plus the telemetry contracts: recorders
//                    attached leave the state digest unchanged, and the
//                    job-trace / time-series digests are identical at 1, 2
//                    and 4 placement lanes. Dumps the flight-recorder tail
//                    and exits 2 on any violation.
//   --csv            append machine-readable per-tenant records.
//   --metrics-json P enable the obs registry and write its JSON to P.
//   --chrome-trace P enable the obs registry and write spans to P (with
//                    time-series counter curves and per-job tracks merged
//                    in when those recorders are active).
//   --timeseries-json P  sample the pooled run on a sim-time cadence and
//                    write the netsel-timeseries-v1 document to P.
//   --timeseries-csv P   same samples as a CSV table.
//   --job-trace P    record per-job causal traces and write JSONL to P.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/jobtrace.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "remos/snapshot.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "topo/synthetic.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "obs_exports.hpp"

namespace {

using namespace netsel;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// q in [0, 1]; empty-tolerant front end for util::percentile (same linear
/// interpolation every other bench uses).
double percentile(const std::vector<double>& xs, double q) {
  if (xs.empty()) return 0.0;
  return util::percentile(xs, q * 100.0);
}

struct TenantRow {
  int placed = 0;
  int full = 0, smoothed = 0, prior = 0;
  double wait_sum = 0.0;
};

struct RunResult {
  std::uint64_t digest = 0;
  sched::SchedulerStats stats;
  double wall_seconds = 0.0;
  /// Wall-clock placement-decision costs of every placed job, ascending.
  std::vector<double> latencies;
  std::map<std::string, TenantRow> tenants;
  double placements_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(stats.placed) / wall_seconds
               : 0.0;
  }
};

sched::WorkloadConfig workload_config(std::uint64_t seed) {
  sched::WorkloadConfig w;
  w.arrival_rate = 2.0;  // open-loop: 2 jobs per simulated second
  w.seed = seed;
  return w;
}

/// Submit `jobs` Poisson arrivals and drain the scheduler to completion.
/// The middle third of the trace runs under a measurement brownout
/// (coverage 0.75), which the three tenants' policies answer differently:
/// airshed tolerates it (Full), fft falls to Smoothed (default thresholds),
/// mri demands 0.8 coverage and falls all the way to the capacity prior.
RunResult run_scheduler(const topo::TopologyGraph& g, std::uint64_t seed,
                        int jobs, util::ThreadPool* pool,
                        sched::SchedulerConfig cfg,
                        obs::TimeSeriesRecorder* ts = nullptr,
                        obs::JobTraceRecorder* jt = nullptr) {
  cfg.pool = pool;
  cfg.timeseries = ts;
  cfg.job_trace = jt;
  sched::SchedulerService sched(g, cfg);
  remos::apply_synthetic_load(sched.snapshot(), seed + 7);
  {
    sched::TenantPolicy tolerant;
    tolerant.degradation.smoothed_below = 0.7;
    sched.set_tenant_policy("airshed", tolerant);
    sched::TenantPolicy strict;
    strict.degradation.prior_below = 0.8;
    sched.set_tenant_policy("mri", strict);
  }
  sched::JobStream stream(workload_config(seed));

  const auto t0 = Clock::now();
  const double last = stream.feed(sched, jobs);
  sched.run_until(last / 3.0);
  sched.set_measurement_coverage(0.75);
  sched.run_until(2.0 * last / 3.0);
  sched.set_measurement_coverage(1.0);
  sched.drain();
  RunResult out;
  out.wall_seconds = seconds_since(t0);
  out.digest = sched.state_digest();
  out.stats = sched.stats();
  for (const sched::JobRecord& rec : sched.jobs()) {
    if (rec.start_time < 0.0) continue;
    out.latencies.push_back(rec.placement_seconds);
    TenantRow& row = out.tenants[rec.spec.tenant];
    ++row.placed;
    row.wait_sum += rec.wait_time();
    switch (rec.ladder) {
      case api::DegradationLevel::Full: ++row.full; break;
      case api::DegradationLevel::Smoothed: ++row.smoothed; break;
      case api::DegradationLevel::Prior: ++row.prior; break;
    }
  }
  std::sort(out.latencies.begin(), out.latencies.end());
  return out;
}

// ---------------------------------------------------------------------------
// --check: correctness smoke on a small fabric
// ---------------------------------------------------------------------------

/// Concurrently-running jobs must never share a node (exclusive
/// allocation): check every pair of placed jobs with overlapping
/// [start, finish) intervals for node-set intersection.
bool exclusive_allocations(const std::vector<sched::JobRecord>& jobs) {
  for (std::size_t a = 0; a < jobs.size(); ++a) {
    if (jobs[a].start_time < 0.0) continue;
    for (std::size_t b = a + 1; b < jobs.size(); ++b) {
      if (jobs[b].start_time < 0.0) continue;
      const double a_end = jobs[a].finish_time, b_end = jobs[b].finish_time;
      if (a_end >= 0.0 && a_end <= jobs[b].start_time) continue;
      if (b_end >= 0.0 && b_end <= jobs[a].start_time) continue;
      // Overlapping in time, but migrations may have moved either job's
      // final node set — only flag jobs that never migrated (their record
      // is the full occupancy history).
      if (jobs[a].migrations > 0 || jobs[b].migrations > 0) continue;
      for (topo::NodeId n : jobs[a].nodes)
        if (std::find(jobs[b].nodes.begin(), jobs[b].nodes.end(), n) !=
            jobs[b].nodes.end())
          return false;
    }
  }
  return true;
}

int run_check(std::uint64_t seed) {
  int rc = 0;
  auto g = topo::fat_tree(topo::fat_tree_for_hosts(128, 16, 2.0, seed));

  sched::SchedulerConfig cfg;
  cfg.placement_lanes = 3;
  cfg.backfill_window = 6;
  cfg.schedule_interval = 1.0;   // batched rounds: conflicts can fire
  cfg.max_queue_depth = 24;      // small: exercises admission rejection
  cfg.queue_timeout = 600.0;     // exercises the timeout path
  cfg.rebalance_on_release = true;
  cfg.rebalance_budget = 1;

  // The pre-run sensor state every run starts from (exact-restore oracle).
  remos::NetworkSnapshot reference(g);
  remos::apply_synthetic_load(reference, seed + 7);

  // High arrival pressure on 128 hosts so the queue, the rejection path and
  // the conflict re-placement path all fire.
  auto run_once = [&](util::ThreadPool* pool,
                      obs::TimeSeriesRecorder* ts = nullptr,
                      obs::JobTraceRecorder* jt = nullptr,
                      int lanes = 0) {
    sched::SchedulerConfig run_cfg = cfg;
    run_cfg.pool = pool;
    run_cfg.timeseries = ts;
    run_cfg.job_trace = jt;
    if (lanes > 0) run_cfg.placement_lanes = lanes;
    sched::SchedulerService run(g, run_cfg);
    remos::apply_synthetic_load(run.snapshot(), seed + 7);
    sched::WorkloadConfig w = workload_config(seed);
    w.arrival_rate = 2.0;
    sched::JobStream stream(w);
    stream.feed(run, 80);
    run.drain();

    // Every job reached a terminal state.
    for (const sched::JobRecord& rec : run.jobs())
      if (rec.state == sched::JobState::Submitted ||
          rec.state == sched::JobState::Queued ||
          rec.state == sched::JobState::Running) {
        std::fprintf(stderr, "CHECK FAILED: job %llu not terminal (%s)\n",
                     static_cast<unsigned long long>(rec.id),
                     sched::job_state_name(rec.state));
        rc = 2;
      }
    if (!exclusive_allocations(run.jobs())) {
      std::fprintf(stderr, "CHECK FAILED: concurrent jobs shared a node\n");
      rc = 2;
    }
    // A drained scheduler restores the snapshot exactly.
    for (std::size_t n = 0; n < g.node_count() && rc == 0; ++n)
      if (run.snapshot().cpu(static_cast<topo::NodeId>(n)) !=
          reference.cpu(static_cast<topo::NodeId>(n))) {
        std::fprintf(stderr, "CHECK FAILED: cpu(%zu) not restored\n", n);
        rc = 2;
      }
    for (std::size_t l = 0; l < g.link_count() && rc == 0; ++l) {
      const auto id = static_cast<topo::LinkId>(l);
      if (run.snapshot().bw_dir(id, true) != reference.bw_dir(id, true) ||
          run.snapshot().bw_dir(id, false) != reference.bw_dir(id, false)) {
        std::fprintf(stderr, "CHECK FAILED: bw(%zu) not restored\n", l);
        rc = 2;
      }
    }
    return run.state_digest();
  };

  const std::uint64_t flight_before = obs::FlightRecorder::global().recorded();
  const std::uint64_t serial_digest = run_once(nullptr);
  util::ThreadPool pool(2);
  const std::uint64_t pooled_digest = run_once(&pool);
  if (serial_digest != pooled_digest) {
    std::fprintf(stderr,
                 "CHECK FAILED: serial digest %016llx != 2-thread %016llx\n",
                 static_cast<unsigned long long>(serial_digest),
                 static_cast<unsigned long long>(pooled_digest));
    rc = 2;
  }
  if (obs::FlightRecorder::global().recorded() == flight_before) {
    std::fprintf(stderr,
                 "CHECK FAILED: flight recorder captured no events over a "
                 "full scheduler run\n");
    rc = 2;
  }

  // Telemetry contracts: recorders attached must leave the state digest
  // unchanged (they are pure outputs), and the job-trace / time-series
  // digests must be identical at 1, 2 and 4 placement lanes — lane count
  // partitions speculation but never changes a decision, a sim-time bound
  // or a sample.
  {
    std::uint64_t trace_ref = 0, ts_ref = 0;
    bool first = true;
    for (int lanes : {1, 2, 4}) {
      obs::TimeSeriesRecorder ts(1.0);
      obs::JobTraceRecorder jt;
      const std::uint64_t d = run_once(nullptr, &ts, &jt, lanes);
      if (d != serial_digest) {
        std::fprintf(stderr,
                     "CHECK FAILED: state digest with telemetry at %d lanes "
                     "%016llx != recorder-off %016llx\n",
                     lanes, static_cast<unsigned long long>(d),
                     static_cast<unsigned long long>(serial_digest));
        rc = 2;
      }
      if (jt.traces() == 0 || jt.spans() == 0 || ts.samples() < 2) {
        std::fprintf(stderr,
                     "CHECK FAILED: telemetry run recorded %zu traces / %zu "
                     "spans / %zu samples\n",
                     jt.traces(), jt.spans(), ts.samples());
        rc = 2;
      }
      if (first) {
        trace_ref = jt.digest();
        ts_ref = ts.digest();
        first = false;
      } else if (jt.digest() != trace_ref || ts.digest() != ts_ref) {
        std::fprintf(stderr,
                     "CHECK FAILED: telemetry digests at %d lanes diverged "
                     "(trace %016llx vs %016llx, ts %016llx vs %016llx)\n",
                     lanes, static_cast<unsigned long long>(jt.digest()),
                     static_cast<unsigned long long>(trace_ref),
                     static_cast<unsigned long long>(ts.digest()),
                     static_cast<unsigned long long>(ts_ref));
        rc = 2;
      }
    }
  }

  // Degradation ladder: the same trace placed under collapsed coverage must
  // still place jobs, on the prior rung.
  {
    sched::SchedulerConfig prior_cfg = cfg;
    prior_cfg.pool = nullptr;
    sched::SchedulerService run(g, prior_cfg);
    remos::apply_synthetic_load(run.snapshot(), seed + 7);
    run.set_measurement_coverage(0.1);  // below every prior_below default
    sched::WorkloadConfig w = workload_config(seed);
    w.arrival_rate = 2.0;
    sched::JobStream stream(w);
    stream.feed(run, 20);
    run.drain();
    bool any_prior = false;
    for (const sched::JobRecord& rec : run.jobs())
      if (rec.start_time >= 0.0 &&
          rec.ladder == api::DegradationLevel::Prior)
        any_prior = true;
    if (!any_prior) {
      std::fprintf(stderr,
                   "CHECK FAILED: coverage 0.1 placed nothing on the prior "
                   "rung\n");
      rc = 2;
    }
  }

  if (rc != 0) {
    std::fprintf(stderr, "post-mortem: flight-recorder tail\n");
    obs::FlightRecorder::global().dump(std::cerr);
  }
  std::fprintf(stderr, rc == 0 ? "check: OK\n" : "check: FAILED\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 300;
  std::uint64_t seed = 4242;
  int threads = -1;
  bool csv = false;
  bool check = false;
  const char* metrics_path = nullptr;
  const char* trace_path = nullptr;
  const char* ts_json_path = nullptr;
  const char* ts_csv_path = nullptr;
  const char* job_trace_path = nullptr;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--timeseries-json") == 0 &&
               i + 1 < argc) {
      ts_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--timeseries-csv") == 0 && i + 1 < argc) {
      ts_csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--job-trace") == 0 && i + 1 < argc) {
      job_trace_path = argv[++i];
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      // A removed or misspelt flag must not be read as a positional.
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return 1;
    } else if (positional == 0) {
      jobs = std::atoi(argv[i]);
      ++positional;
    } else {
      seed = static_cast<std::uint64_t>(std::strtoull(argv[i], nullptr, 10));
      ++positional;
    }
  }
  if (jobs < 1) {
    std::fprintf(stderr, "jobs must be >= 1\n");
    return 1;
  }
  if (check) return run_check(seed);
  if (metrics_path || trace_path) obs::set_enabled(true);

  std::fprintf(stderr,
               "bench_service: generating 10k-host fat-tree (seed %llu)...\n",
               static_cast<unsigned long long>(seed));
  auto g = topo::fat_tree(topo::fat_tree_for_hosts(10000, 48, 3.0, seed));
  const int hosts = static_cast<int>(g.compute_node_count());

  sched::SchedulerConfig cfg;
  cfg.placement_lanes = 4;
  cfg.backfill_window = 8;
  // Tick every 2 sim-seconds: rounds batch ~4 Poisson arrivals, so the
  // speculative lanes see real multi-candidate windows.
  cfg.schedule_interval = 2.0;
  // Completions hand their freed capacity to the worst-off running job
  // (bounded migration through api::reselect).
  cfg.rebalance_on_release = true;
  cfg.rebalance_budget = 2;

  // Time-series cadence: one sample per simulated second (the arrival rate
  // is 2 jobs/s, so every sample integrates ~2 decisions). Recorders attach
  // to the pooled (headline) run only; they are pure outputs, so the serial
  // reference digest still has to match.
  std::unique_ptr<obs::TimeSeriesRecorder> ts;
  std::unique_ptr<obs::JobTraceRecorder> jt;
  if (ts_json_path || ts_csv_path) ts = std::make_unique<obs::TimeSeriesRecorder>(1.0);
  if (job_trace_path) jt = std::make_unique<obs::JobTraceRecorder>();

  util::ThreadPool pool(threads);
  std::fprintf(stderr, "bench_service: pooled run (%d workers)...\n",
               pool.workers());
  const RunResult pooled =
      run_scheduler(g, seed, jobs, &pool, cfg, ts.get(), jt.get());
  std::fprintf(stderr, "bench_service: serial reference run...\n");
  const RunResult serial = run_scheduler(g, seed, jobs, nullptr, cfg);
  const bool identical = pooled.digest == serial.digest;

  const sched::SchedulerStats& st = pooled.stats;
  std::printf(
      "== Placement service on a %zu-node / %d-host fat-tree, %d jobs, "
      "seed %llu ==\n"
      "   open-loop Poisson arrivals (%.2f jobs/s), paper mix "
      "(fft/airshed/mri)\n\n",
      g.node_count(), hosts, jobs, static_cast<unsigned long long>(seed),
      workload_config(seed).arrival_rate);
  std::printf("%-26s %12s\n", "outcome", "jobs");
  std::printf("%-26s %12llu\n", "submitted",
              static_cast<unsigned long long>(st.submitted));
  std::printf("%-26s %12llu\n", "placed",
              static_cast<unsigned long long>(st.placed));
  std::printf("%-26s %12llu\n", "completed",
              static_cast<unsigned long long>(st.completed));
  std::printf("%-26s %12llu\n", "rejected",
              static_cast<unsigned long long>(st.rejected));
  std::printf("%-26s %12llu\n", "timed out",
              static_cast<unsigned long long>(st.timed_out));
  std::printf("%-26s %12llu\n", "conflict re-placements",
              static_cast<unsigned long long>(st.conflicts));
  std::printf("%-26s %12llu\n", "infeasible attempts",
              static_cast<unsigned long long>(st.infeasible_attempts));
  std::printf(
      "\nplacements/sec %.1f (serial %.1f)   placement latency p50 %.3f ms, "
      "p99 %.3f ms, max %.3f ms\n",
      pooled.placements_per_sec(), serial.placements_per_sec(),
      percentile(pooled.latencies, 0.50) * 1e3,
      percentile(pooled.latencies, 0.99) * 1e3,
      (pooled.latencies.empty() ? 0.0 : pooled.latencies.back()) * 1e3);
  std::printf("digest pooled %016llx, serial %016llx: %s\n",
              static_cast<unsigned long long>(pooled.digest),
              static_cast<unsigned long long>(serial.digest),
              identical ? "IDENTICAL" : "DIVERGED");
  std::printf("\n%-10s %8s %6s %9s %6s %12s\n", "tenant", "placed", "full",
              "smoothed", "prior", "mean_wait_s");
  for (const auto& [tenant, row] : pooled.tenants)
    std::printf("%-10s %8d %6d %9d %6d %12.2f\n", tenant.c_str(), row.placed,
                row.full, row.smoothed, row.prior,
                row.placed > 0 ? row.wait_sum / row.placed : 0.0);

  if (csv) {
    std::printf(
        "\n-- csv --\ntenant,placed,full,smoothed,prior,mean_wait_s\n");
    for (const auto& [tenant, row] : pooled.tenants)
      std::printf("%s,%d,%d,%d,%d,%.2f\n", tenant.c_str(), row.placed,
                  row.full, row.smoothed, row.prior,
                  row.placed > 0 ? row.wait_sum / row.placed : 0.0);
  }
  sched::register_scheduler_metrics();
  if (!bench::write_obs_exports(metrics_path, trace_path, ts.get(), jt.get()))
    return 1;
  bool artifacts_ok = true;
  if (ts) {
    artifacts_ok &= bench::write_artifact(
        ts_json_path, [&](std::ostream& f) { ts->write_json(f); });
    artifacts_ok &= bench::write_artifact(
        ts_csv_path, [&](std::ostream& f) { ts->write_csv(f); });
  }
  if (jt)
    artifacts_ok &= bench::write_artifact(
        job_trace_path, [&](std::ostream& f) { jt->write_jsonl(f); });
  if (!artifacts_ok) return 1;
  if (!identical) return 2;
  return st.placed > 0 ? 0 : 2;
}
