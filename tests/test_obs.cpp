// Tests of the obs layer: metric primitives, the registry, exporters, and
// the load-bearing contracts — concurrent counter updates are exact and
// concurrent flight-recorder writers and readers never tear an event (both
// exercised under TSan in CI), and enabling the registry never changes a
// single bit of any experiment result.

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "exp/table1.hpp"
#include "util/thread_pool.hpp"

namespace netsel::obs {
namespace {

/// Every test runs against the (process-global) registry: enable, reset,
/// and restore the disabled default afterwards so test order never matters.
struct ObsFixture : ::testing::Test {
  void SetUp() override {
    set_enabled(true);
    Registry::global().reset();
  }
  void TearDown() override {
    Registry::global().reset();
    set_enabled(false);
  }
};

using Obs = ObsFixture;

TEST_F(Obs, CounterCountsAndResets) {
  Counter& c = Registry::global().counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  // Create-or-get: same name, same object.
  EXPECT_EQ(&c, &Registry::global().counter("test.counter"));
}

TEST_F(Obs, GaugeLastValueWins) {
  Gauge& g = Registry::global().gauge("test.gauge");
  g.set(1.5);
  g.set(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), -3.0);
  g.add(1.0);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(Obs, HistogramBucketsValuesCorrectly) {
  // Bounds are inclusive upper bounds with an implicit +inf overflow.
  Histogram& h =
      Registry::global().histogram("test.hist", {1.0, 2.0, 4.0});
  for (double v : {0.5, 1.0, 1.5, 3.0, 100.0}) h.observe(v);
  auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);      // 0.5, 1.0 (inclusive)
  EXPECT_EQ(counts[1], 1u);      // 1.5
  EXPECT_EQ(counts[2], 1u);      // 3.0
  EXPECT_EQ(counts[3], 1u);      // 100.0 -> overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 106.0 / 5.0);
}

TEST_F(Obs, HistogramEmptyReportsZeros) {
  Histogram& h = Registry::global().histogram("test.empty", {1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST_F(Obs, BucketHelpers) {
  auto e = exp_buckets(1.0, 2.0, 4);
  ASSERT_EQ(e.size(), 4u);
  EXPECT_DOUBLE_EQ(e[0], 1.0);
  EXPECT_DOUBLE_EQ(e[3], 8.0);
  auto l = linear_buckets(0.1, 0.1, 3);
  ASSERT_EQ(l.size(), 3u);
  EXPECT_NEAR(l[2], 0.3, 1e-12);
}

TEST_F(Obs, DisabledSitesAreNoOps) {
  Counter& c = Registry::global().counter("test.disabled.counter");
  Gauge& g = Registry::global().gauge("test.disabled.gauge");
  Histogram& h = Registry::global().histogram("test.disabled.hist", {1.0});
  set_enabled(false);
  c.inc();
  g.set(5.0);
  h.observe(0.5);
  {
    ScopedTimer t(h);
    Span span("test.disabled.span");
    EXPECT_FALSE(span.active());
    span.arg("k", "v");  // must be a harmless no-op
  }
  set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(Registry::global().spans().empty());
}

TEST_F(Obs, ResetKeepsReferencesValid) {
  Counter& c = Registry::global().counter("test.stable");
  c.inc(7);
  Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc(3);  // the pre-reset reference must still reach the live object
  EXPECT_EQ(c.value(), 3u);
  EXPECT_EQ(&c, &Registry::global().counter("test.stable"));
}

TEST_F(Obs, SpanRecordsWallSimAndArgs) {
  {
    Span span("test.span", "testcat", 10.0);
    EXPECT_TRUE(span.active());
    span.arg("key", "value");
    span.sim_range(10.0, 25.0);
  }
  auto spans = Registry::global().spans();
  ASSERT_EQ(spans.size(), 1u);
  const SpanRecord& rec = spans[0];
  EXPECT_EQ(rec.name, "test.span");
  EXPECT_EQ(rec.cat, "testcat");
  EXPECT_GE(rec.dur_us, 0.0);
  EXPECT_DOUBLE_EQ(rec.sim_begin, 10.0);
  EXPECT_DOUBLE_EQ(rec.sim_end, 25.0);
  ASSERT_EQ(rec.args.size(), 1u);
  EXPECT_EQ(rec.args[0].first, "key");
  EXPECT_EQ(rec.args[0].second, "value");
}

TEST_F(Obs, ScopedTimerObservesSeconds) {
  Histogram& h = Registry::global().histogram(
      "test.timer", exp_buckets(1e-9, 10.0, 12));
  { ScopedTimer t(h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.max(), 0.0);
  EXPECT_LT(h.max(), 60.0);  // sanity: a no-op scope is not a minute long
}

TEST_F(Obs, ExportersRenderTheRegistry) {
  Registry::global().counter("export.counter").inc(5);
  Registry::global().gauge("export.gauge").set(2.5);
  Registry::global()
      .histogram("export.hist", {1.0, 2.0})
      .observe(1.5);
  {
    Span span("export.span", "exp");
    span.arg("app", "FFT \"1K\"");  // exercises JSON string escaping
  }
  const Registry& r = Registry::global();

  std::string doc = to_json(r);
  EXPECT_NE(doc.find(kMetricsSchema), std::string::npos);
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"export.counter\": 5"), std::string::npos);

  std::string trace = to_chrome_trace(r);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("export.span"), std::string::npos);
  EXPECT_NE(trace.find("FFT \\\"1K\\\""), std::string::npos);
}

TEST_F(Obs, ConcurrentCounterUpdatesAreExact) {
  // The sharded counter's one job: absorb concurrent increments from pool
  // workers without losing any. CI runs this test under TSan too.
  Counter& c = Registry::global().counter("test.concurrent");
  Histogram& h = Registry::global().histogram(
      "test.concurrent.hist", exp_buckets(1.0, 2.0, 10));
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kIncsPerTask = 5000;
  util::ThreadPool pool(4);
  util::parallel_for(pool, kTasks, [&](std::size_t i) {
    for (std::uint64_t k = 0; k < kIncsPerTask; ++k) c.inc();
    h.observe(static_cast<double>(i % 7) + 0.5);
  });
  EXPECT_EQ(c.value(), kTasks * kIncsPerTask);
  EXPECT_EQ(h.count(), kTasks);
}

TEST_F(Obs, ConcurrentFlightRecordsNeverTear) {
  // Four writers on a four-slot ring wrap onto the same slots constantly;
  // a slot written by two of them at once would mix their fields.
  FlightRecorder fr(4);
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kEvents = 20000;
  std::vector<std::thread> writers;
  for (std::uint64_t t = 0; t < kThreads; ++t)
    writers.emplace_back([&fr, t] {
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        const std::uint64_t a = t * kEvents + i;
        fr.record(FlightKind::Custom, 0.0, a, a * 3 + 1, std::to_string(a));
      }
    });
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(fr.recorded(), kThreads * kEvents);
  const std::vector<FlightEvent> tail = fr.tail();
  EXPECT_EQ(tail.size(), 4u);
  for (const FlightEvent& ev : tail) {
    EXPECT_EQ(ev.b, ev.a * 3 + 1) << "seq " << ev.seq;
    EXPECT_EQ(std::string(ev.detail), std::to_string(ev.a)) << "seq " << ev.seq;
  }
}

TEST_F(Obs, FlightTailDuringWritesNeverTears) {
  // A reader copies the ring while four writers wrap it constantly: every
  // event it returns must be one writer's whole event, and a tail is a run
  // of consecutive sequence numbers. CI runs this test under TSan too.
  FlightRecorder fr(4);
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kEvents = 5000;
  std::atomic<bool> writing{true};
  std::uint64_t tails = 0;
  std::thread reader([&] {
    do {
      const std::vector<FlightEvent> tail = fr.tail();
      ++tails;
      for (std::size_t i = 0; i < tail.size(); ++i) {
        const FlightEvent& ev = tail[i];
        EXPECT_EQ(ev.b, ev.a * 3 + 1) << "seq " << ev.seq;
        EXPECT_EQ(std::string(ev.detail), std::to_string(ev.a))
            << "seq " << ev.seq;
        if (i > 0) {
          EXPECT_EQ(ev.seq, tail[i - 1].seq + 1);
        }
      }
    } while (writing.load());
  });
  std::vector<std::thread> writers;
  for (std::uint64_t t = 0; t < kThreads; ++t)
    writers.emplace_back([&fr, t] {
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        const std::uint64_t a = t * kEvents + i;
        fr.record(FlightKind::Custom, 0.0, a, a * 3 + 1, std::to_string(a));
      }
    });
  for (std::thread& w : writers) w.join();
  writing.store(false);
  reader.join();
  EXPECT_GT(tails, 0u);
  EXPECT_EQ(fr.recorded(), kThreads * kEvents);
}

/// The tentpole contract: the whole Table-1 pipeline is bit-identical with
/// the registry enabled or disabled. Wall-clock fields are excluded — they
/// are documented as observability-only.
TEST_F(Obs, Table1ResultsBitIdenticalEnabledVsDisabled) {
  exp::Table1Options opt;
  opt.trials = 2;
  opt.seed = 424242;

  set_enabled(false);
  auto base = exp::run_table1(opt);
  set_enabled(true);
  Registry::global().reset();
  auto instrumented = exp::run_table1(opt);

  // The instrumented run must actually have recorded something — otherwise
  // this test would pass vacuously with the instrumentation compiled out.
  EXPECT_GT(Registry::global().counter("exp.trials").value(), 0u);
  EXPECT_GT(Registry::global().counter("select.selections").value(), 0u);
  EXPECT_GT(Registry::global().counter("sim.events").value(), 0u);

  ASSERT_EQ(base.size(), instrumented.size());
  for (std::size_t r = 0; r < base.size(); ++r) {
    EXPECT_EQ(base[r].app, instrumented[r].app);
    EXPECT_EQ(base[r].reference, instrumented[r].reference);
    for (std::size_t c = 0; c < 3; ++c) {
      for (auto pick : {&exp::MeasuredRow::random_sel,
                        &exp::MeasuredRow::auto_sel}) {
        const exp::CellResult& a = (base[r].*pick)[c];
        const exp::CellResult& b = (instrumented[r].*pick)[c];
        EXPECT_EQ(a.mean(), b.mean());
        EXPECT_EQ(a.ci_halfwidth(), b.ci_halfwidth());
        EXPECT_EQ(a.count(), b.count());
        EXPECT_EQ(a.failures, b.failures);
      }
    }
  }
}

// --- Bucket-based quantile estimation --------------------------------------

TEST_F(Obs, QuantileFromBucketsExactOnDegenerateBuckets) {
  // One observation per unit-wide bucket: quantiles interpolate linearly
  // inside the bucket the rank lands in, and the min/max tighten the edge
  // buckets, so reference points are exact.
  Histogram& h = Registry::global().histogram(
      "test.quant.uniform", linear_buckets(1.0, 1.0, 9));
  for (int v = 1; v <= 10; ++v) h.observe(static_cast<double>(v));
  // p0 -> the observed min, p100 -> the observed max.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  // Rank 5 = exactly the 5th observation's bucket upper edge.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 9.0);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST_F(Obs, QuantileBoundedByBucketOfRank) {
  // 1000 exponentially distributed-ish values; the bucket estimate must
  // land inside the true value's bucket (the strongest guarantee a
  // bucketed estimator can give).
  Histogram& h = Registry::global().histogram("test.quant.exp",
                                              exp_buckets(1e-3, 2.0, 20));
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    const double v = 1e-3 * (1.0 + 0.01 * i) * (1 + i % 7);
    xs.push_back(v);
    h.observe(v);
  }
  std::sort(xs.begin(), xs.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact =
        xs[static_cast<std::size_t>(q * (xs.size() - 1))];
    const double est = h.quantile(q);
    // Same power-of-two bucket: within a factor of 2 of the exact value.
    EXPECT_GE(est, exact / 2.0) << "q=" << q;
    EXPECT_LE(est, exact * 2.0) << "q=" << q;
  }
}

TEST_F(Obs, QuantileSingleValueAndEmpty) {
  Histogram& h =
      Registry::global().histogram("test.quant.single", {1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty -> 0
  h.observe(1.7);
  // All mass in one bucket with min == max == 1.7: every quantile is 1.7.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.7);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.7);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.7);
}

TEST_F(Obs, QuantileViewMatchesHistogram) {
  Histogram& h = Registry::global().histogram("test.quant.view",
                                              linear_buckets(10.0, 10.0, 5));
  for (double v : {5.0, 12.0, 33.0, 47.0, 61.0}) h.observe(v);
  for (const Registry::HistogramView& view :
       Registry::global().histograms()) {
    if (view.name != "test.quant.view") continue;
    for (double q : {0.0, 0.25, 0.5, 0.75, 1.0})
      EXPECT_DOUBLE_EQ(view.quantile(q), h.quantile(q)) << "q=" << q;
    return;
  }
  FAIL() << "view for test.quant.view not found";
}

}  // namespace
}  // namespace netsel::obs
