// Tests of the time-dimension telemetry (DESIGN.md §13): the delta-encoded
// TimeSeriesRecorder, per-job causal traces, and the always-on flight
// recorder — plus their three determinism contracts:
//   * recorders attached never change the scheduler's state digest, and the
//     recorder-off digest equals the recorder-on digest;
//   * job-trace and time-series digests are identical at 1, 2 and 4
//     placement lanes (serial and pooled);
//   * the flight ring under overflow keeps exactly the newest N events;
// and the reconciliation of the exported time series and job traces with
// the registry counters they mirror.

#include "obs/flight.hpp"
#include "obs/jobtrace.hpp"
#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "remos/snapshot.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "topo/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace netsel {
namespace {

// --- TimeSeriesRecorder ----------------------------------------------------

TEST(TimeSeries, SamplesOnCadenceBoundaries) {
  obs::TimeSeriesRecorder ts(0.5);
  std::uint64_t counter = 0;
  double gauge = 0.0;
  ts.add_counter("c", [&] { return counter; });
  ts.add_gauge("g", [&] { return gauge; });

  // Boundaries 0, 0.5, 1.0 are <= 1.2; the carried-forward state is read at
  // each boundary's emit time.
  counter = 3;
  gauge = 1.5;
  ts.sample_until(1.2);
  EXPECT_EQ(ts.samples(), 3u);
  EXPECT_DOUBLE_EQ(ts.t_first(), 0.0);
  EXPECT_DOUBLE_EQ(ts.t_last(), 1.0);

  // inclusive=false leaves a boundary exactly at sim_t for the next call.
  counter = 5;
  ts.sample_until(1.5, /*inclusive=*/false);
  EXPECT_EQ(ts.samples(), 3u);
  counter = 7;
  ts.sample_until(1.5, /*inclusive=*/true);
  EXPECT_EQ(ts.samples(), 4u);

  const std::vector<double> c = ts.values("c");
  ASSERT_EQ(c.size(), 4u);
  EXPECT_DOUBLE_EQ(c[0], 3.0);
  EXPECT_DOUBLE_EQ(c[1], 3.0);
  EXPECT_DOUBLE_EQ(c[2], 3.0);
  EXPECT_DOUBLE_EQ(c[3], 7.0);  // boundary at the instant sees post-event
  const std::vector<double> g = ts.values("g");
  ASSERT_EQ(g.size(), 4u);
  EXPECT_DOUBLE_EQ(g[3], 1.5);
}

TEST(TimeSeries, DeltaDecodeRoundTripsAndRingBounds) {
  obs::TimeSeriesRecorder ts(1.0, /*capacity=*/8);
  std::uint64_t v = 0;
  ts.add_counter("v", [&] { return v; });
  std::vector<double> expected;
  for (int i = 0; i < 20; ++i) {
    v = static_cast<std::uint64_t>(i * i);  // non-uniform deltas
    ts.sample_until(static_cast<double>(i));
    expected.push_back(static_cast<double>(v));
  }
  // Ring bound: the newest 8 rows survive; first/last stay exact.
  EXPECT_EQ(ts.samples(), 8u);
  EXPECT_EQ(ts.total_samples(), 20u);
  EXPECT_EQ(ts.dropped(), 12u);
  EXPECT_DOUBLE_EQ(ts.t_first(), 12.0);
  EXPECT_DOUBLE_EQ(ts.t_last(), 19.0);
  const std::vector<double> got = ts.values("v");
  ASSERT_EQ(got.size(), 8u);
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_DOUBLE_EQ(got[i], expected[12 + i]) << "row " << i;
}

TEST(TimeSeries, JsonExportIsConsistent) {
  obs::TimeSeriesRecorder ts(2.0);
  std::uint64_t v = 0;
  ts.add_counter("x.count", [&] { return v; });
  v = 10;
  ts.sample_until(6.0);
  std::ostringstream os;
  ts.write_json(os);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"schema\": \"netsel-timeseries-v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"samples\": 4"), std::string::npos);
  EXPECT_NE(doc.find("\"x.count\""), std::string::npos);
}

// --- JobTraceRecorder ------------------------------------------------------

TEST(JobTrace, SpanTreeStructure) {
  obs::JobTraceRecorder jt;
  const std::uint32_t root =
      jt.begin(7, obs::JobSpan::kNoParent, "job", 1.0);
  const std::uint32_t child = jt.begin(7, root, "queue.wait", 1.0);
  jt.end(7, child, 3.0);
  jt.span(7, root, "commit", 3.0, 3.0);
  jt.end(7, root, 5.0);

  ASSERT_TRUE(jt.has_trace(7));
  const std::vector<obs::JobSpan>& spans = jt.trace(7);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, obs::JobSpan::kNoParent);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, root);
  EXPECT_DOUBLE_EQ(spans[0].sim_begin, 1.0);
  EXPECT_DOUBLE_EQ(spans[0].sim_end, 5.0);
  EXPECT_DOUBLE_EQ(spans[1].sim_end, 3.0);
}

TEST(JobTrace, DigestExcludesArgs) {
  obs::JobTraceRecorder a, b;
  const std::uint32_t ra = a.begin(1, obs::JobSpan::kNoParent, "job", 0.0);
  const std::uint32_t rb = b.begin(1, obs::JobSpan::kNoParent, "job", 0.0);
  a.annotate(1, ra, "lane", "0");
  b.annotate(1, rb, "lane", "3");  // lane attribution differs, digest must not
  a.end(1, ra, 2.0);
  b.end(1, rb, 2.0);
  EXPECT_EQ(a.digest(), b.digest());

  // ...but structure and sim-time bounds do change the digest.
  obs::JobTraceRecorder c;
  const std::uint32_t rc = c.begin(1, obs::JobSpan::kNoParent, "job", 0.0);
  c.end(1, rc, 2.5);
  EXPECT_NE(a.digest(), c.digest());
}

// --- FlightRecorder --------------------------------------------------------

TEST(FlightRecorder, OverflowKeepsNewest) {
  obs::FlightRecorder fr(8);
  EXPECT_EQ(fr.capacity(), 8u);
  for (std::uint64_t i = 1; i <= 20; ++i)
    fr.record(obs::FlightKind::Custom, static_cast<double>(i), i);
  EXPECT_EQ(fr.recorded(), 20u);
  const std::vector<obs::FlightEvent> tail = fr.tail();
  ASSERT_EQ(tail.size(), 8u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].seq, 13 + i) << "tail index " << i;  // newest 8: 13..20
    EXPECT_EQ(tail[i].a, 13 + i);
  }
  // tail(n) narrows further, still oldest-first.
  const std::vector<obs::FlightEvent> last3 = fr.tail(3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_EQ(last3.front().seq, 18u);
  EXPECT_EQ(last3.back().seq, 20u);
}

TEST(FlightRecorder, DetailTruncatesAndDumps) {
  obs::FlightRecorder fr(4);
  fr.record(obs::FlightKind::Admit, 1.5, 42, 4,
            "a-very-long-tenant-name-that-will-not-fit-in-the-slot");
  const std::vector<obs::FlightEvent> tail = fr.tail();
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].detail[sizeof(tail[0].detail) - 1], '\0');
  std::ostringstream os;
  fr.dump(os);
  EXPECT_NE(os.str().find("admit"), std::string::npos);
  EXPECT_NE(os.str().find("a=42"), std::string::npos);
}

// --- Scheduler integration -------------------------------------------------

struct SchedRun {
  std::uint64_t state_digest = 0;
  std::uint64_t trace_digest = 0;
  std::uint64_t ts_digest = 0;
  std::size_t traces = 0;
  std::size_t spans = 0;
  std::size_t samples = 0;
};

SchedRun run_scenario(int lanes, util::ThreadPool* pool, bool telemetry) {
  auto g = topo::fat_tree(topo::fat_tree_for_hosts(64, 8, 2.0, 99));
  obs::TimeSeriesRecorder ts(1.0);
  obs::JobTraceRecorder jt;
  sched::SchedulerConfig cfg;
  cfg.placement_lanes = lanes;
  cfg.backfill_window = 4;
  cfg.schedule_interval = 1.0;
  cfg.max_queue_depth = 16;
  cfg.queue_timeout = 400.0;
  cfg.rebalance_on_release = true;
  cfg.rebalance_budget = 1;
  cfg.pool = pool;
  if (telemetry) {
    cfg.timeseries = &ts;
    cfg.job_trace = &jt;
  }
  sched::SchedulerService sched(g, cfg);
  remos::apply_synthetic_load(sched.snapshot(), 99 + 7);
  sched::WorkloadConfig w;
  w.arrival_rate = 2.0;
  w.seed = 99;
  sched::JobStream stream(w);
  stream.feed(sched, 40);
  sched.drain();
  SchedRun out;
  out.state_digest = sched.state_digest();
  out.trace_digest = jt.digest();
  out.ts_digest = ts.digest();
  out.traces = jt.traces();
  out.spans = jt.spans();
  out.samples = ts.samples();
  return out;
}

TEST(SchedulerTelemetry, RecorderOnOffStateDigestIdentical) {
  const SchedRun off = run_scenario(2, nullptr, false);
  const SchedRun on = run_scenario(2, nullptr, true);
  EXPECT_EQ(off.state_digest, on.state_digest)
      << "attaching recorders changed the schedule";
  EXPECT_GT(on.traces, 0u);
  EXPECT_GT(on.spans, on.traces);  // every trace has at least root + child
  EXPECT_GT(on.samples, 1u);
}

TEST(SchedulerTelemetry, DigestsIdenticalAcrossLaneCounts) {
  const SchedRun one = run_scenario(1, nullptr, true);
  util::ThreadPool pool(2);
  for (int lanes : {2, 4}) {
    const SchedRun serial = run_scenario(lanes, nullptr, true);
    const SchedRun pooled = run_scenario(lanes, &pool, true);
    EXPECT_EQ(serial.state_digest, one.state_digest) << lanes << " lanes";
    EXPECT_EQ(serial.trace_digest, one.trace_digest) << lanes << " lanes";
    EXPECT_EQ(serial.ts_digest, one.ts_digest) << lanes << " lanes";
    EXPECT_EQ(pooled.state_digest, one.state_digest)
        << lanes << " lanes, pooled";
    EXPECT_EQ(pooled.trace_digest, one.trace_digest)
        << lanes << " lanes, pooled";
    EXPECT_EQ(pooled.ts_digest, one.ts_digest) << lanes << " lanes, pooled";
  }
}

TEST(SchedulerTelemetry, TraceTreesCompleteAndClosed) {
  auto g = topo::fat_tree(topo::fat_tree_for_hosts(64, 8, 2.0, 5));
  obs::JobTraceRecorder jt;
  sched::SchedulerConfig cfg;
  cfg.placement_lanes = 2;
  cfg.schedule_interval = 1.0;
  cfg.queue_timeout = 400.0;
  cfg.job_trace = &jt;
  sched::SchedulerService sched(g, cfg);
  remos::apply_synthetic_load(sched.snapshot(), 5 + 7);
  sched::WorkloadConfig w;
  w.seed = 5;
  sched::JobStream stream(w);
  stream.feed(sched, 25);
  sched.drain();

  // Every admitted job has a trace; every span is closed with
  // sim_end >= sim_begin inside the root's bounds, and parents precede
  // children.
  std::size_t checked = 0;
  for (const sched::JobRecord& rec : sched.jobs()) {
    ASSERT_TRUE(jt.has_trace(rec.id)) << "job " << rec.id;
    const std::vector<obs::JobSpan>& spans = jt.trace(rec.id);
    ASSERT_FALSE(spans.empty());
    EXPECT_EQ(spans[0].name, "job");
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const obs::JobSpan& s = spans[i];
      EXPECT_GE(s.sim_end, s.sim_begin) << "span " << s.name;
      if (i == 0) {
        EXPECT_EQ(s.parent, obs::JobSpan::kNoParent);
      } else {
        ASSERT_LT(s.parent, i) << "parent after child";
        EXPECT_GE(s.sim_begin, spans[0].sim_begin);
        EXPECT_LE(s.sim_end, spans[0].sim_end);
      }
      ++checked;
    }
    // Placed jobs went through the whole pipeline.
    if (rec.start_time >= 0.0) {
      auto has = [&](const char* name) {
        for (const obs::JobSpan& s : spans)
          if (s.name == name) return true;
        return false;
      };
      EXPECT_TRUE(has("queue.wait")) << "job " << rec.id;
      EXPECT_TRUE(has("place.attempt")) << "job " << rec.id;
      EXPECT_TRUE(has("commit")) << "job " << rec.id;
      EXPECT_TRUE(has("run")) << "job " << rec.id;
      EXPECT_TRUE(has("release")) << "job " << rec.id;
    }
  }
  EXPECT_GT(checked, 0u);
}

/// The exported telemetry agrees with the registry it mirrors: every
/// counter series of the time-series document ends on the registry counter
/// of the same name, and the job-trace JSONL holds exactly obs.trace.spans
/// spans.
TEST(SchedulerTelemetry, ExportsReconcileWithRegistry) {
  struct ScopedRegistry {
    ScopedRegistry() {
      obs::set_enabled(true);
      obs::Registry::global().reset();
    }
    ~ScopedRegistry() {
      obs::Registry::global().reset();
      obs::set_enabled(false);
    }
  } registry;
  auto g = topo::fat_tree(topo::fat_tree_for_hosts(64, 8, 2.0, 17));
  obs::TimeSeriesRecorder ts(1.0);
  obs::JobTraceRecorder jt;
  sched::SchedulerConfig cfg;
  cfg.placement_lanes = 2;
  cfg.schedule_interval = 1.0;
  cfg.queue_timeout = 400.0;
  cfg.rebalance_on_release = true;
  cfg.timeseries = &ts;
  cfg.job_trace = &jt;
  sched::SchedulerService sched(g, cfg);
  remos::apply_synthetic_load(sched.snapshot(), 17 + 7);
  sched::WorkloadConfig w;
  w.arrival_rate = 2.0;
  w.seed = 17;
  sched::JobStream stream(w);
  stream.feed(sched, 30);
  sched.drain();
  // drain() stops at the last event; the next cadence boundary samples the
  // state that event left.
  sched.run_until(std::ceil(sched.now() / ts.cadence()) * ts.cadence());
  ASSERT_EQ(ts.dropped(), 0u) << "the ring evicted rows: shorten the run";

  std::map<std::string, std::uint64_t> registry_counters;
  for (const auto& [name, value] : obs::Registry::global().counters())
    registry_counters[name] = value;

  std::ostringstream doc;
  ts.write_json(doc);
  std::istringstream lines(doc.str());
  std::size_t counter_series = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("{\"type\":\"counter\"") == std::string::npos) continue;
    const std::size_t open = line.find('"');
    const std::string name =
        line.substr(open + 1, line.find('"', open + 1) - open - 1);
    ++counter_series;
    ASSERT_EQ(registry_counters.count(name), 1u) << name;
    EXPECT_EQ(ts.values(name).back(),
              static_cast<double>(registry_counters[name]))
        << name;
  }
  EXPECT_GE(counter_series, 5u);
  EXPECT_GT(registry_counters["sched.jobs.completed"], 0u);

  std::ostringstream jsonl;
  jt.write_jsonl(jsonl);
  const std::string text = jsonl.str();
  std::uint64_t spans = 0;
  for (std::size_t at = text.find("{\"id\":"); at != std::string::npos;
       at = text.find("{\"id\":", at + 1))
    ++spans;
  EXPECT_GT(spans, 0u);
  EXPECT_EQ(spans, registry_counters["obs.trace.spans"]);
}

TEST(SchedulerTelemetry, FlightRingSeesSchedulerEvents) {
  obs::FlightRecorder fr(64);
  auto g = topo::fat_tree(topo::fat_tree_for_hosts(64, 8, 2.0, 11));
  sched::SchedulerConfig cfg;
  cfg.schedule_interval = 1.0;
  cfg.flight = &fr;
  sched::SchedulerService sched(g, cfg);
  remos::apply_synthetic_load(sched.snapshot(), 11 + 7);
  sched::WorkloadConfig w;
  w.seed = 11;
  sched::JobStream stream(w);
  stream.feed(sched, 10);
  sched.drain();
  EXPECT_GT(fr.recorded(), 0u);
  bool admit = false, place = false, complete = false;
  for (const obs::FlightEvent& ev : fr.tail()) {
    admit |= ev.kind == obs::FlightKind::Admit;
    place |= ev.kind == obs::FlightKind::Place;
    complete |= ev.kind == obs::FlightKind::Complete;
  }
  EXPECT_TRUE(admit);
  EXPECT_TRUE(place);
  EXPECT_TRUE(complete);
}

}  // namespace
}  // namespace netsel
