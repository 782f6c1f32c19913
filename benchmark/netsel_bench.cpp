// netsel_bench: the same-machine benchmark program for netsel.
//
// One process runs one workload and prints one JSON object as the last line
// of stdout (progress goes to stderr). benchmark/run.py builds this program,
// runs it once per workload and turns that object into the report; see
// benchmark/README.md for the workloads, the metrics and why each exists.
//
// Usage:
//   netsel_bench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   netsel_bench --check [--out DIR]
//
// Workloads (each a closed loop from one client thread: the next public
// call is issued only after the previous one returned):
//   service_batched  SchedulerService on the 10k-host fat-tree, Poisson
//                    paper-mix trace, run_until stepped one 2 s tick at a time
//                    (lane speculation, conflict re-placement, thread pool).
//   service_event    the same trace and config with schedule_interval = 0 and
//                    run_until called at each arrival (one-job rounds).
//   cold_1m          balanced m=64 on a fresh SelectionContext over the
//                    1,037,712-node three-level fat-tree.
//   churn_10k        one long-lived SelectionContext on the 10k fat-tree;
//                    each step makes 8 snapshot writes, a revalidating
//                    links_by_bw(), a balanced m=16 selection and a budget-2
//                    api::reselect of a tracked placement.
//
// --seconds sizes the timed phase for about that many seconds on a 4-core
// x86 box (150 batched jobs, 200 per-event jobs, 200 churn steps or 0.9
// cold queries per second), so a seed and a length name one fixed input.
// The first 10% of ops are warm-up: excluded from the op metrics, their wall
// time counted in set-up.
//
// --trace 0 runs five set-ups (the median is setup_s) and times the ops of
// the last one: the end-to-end metrics. --trace 1 runs one untraced and one
// traced pass: the traced pass turns on the obs registry (plus the job-trace
// and time-series recorders on service workloads) and wraps every op, and
// every public layer call inside it, in an obs::Span kept in the registry;
// it reports the per-layer metrics and obs.overhead_frac, and with --out
// writes the registry's Chrome trace and layers.json (self time per span).
// A run whose checks fail exits 2 after printing its result.
//
// --check is the reduced-size smoke: a 128-host fat-tree, a 4k-host
// three-level tree and 200 churn steps, every correctness check, traced vs
// untraced identity on every workload and pooled vs serial state_digest on
// service_batched. Exit 2 on any failure.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/reselect.hpp"
#include "obs/export.hpp"
#include "obs/jobtrace.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "remos/snapshot.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "select/algorithms.hpp"
#include "select/context.hpp"
#include "topo/synthetic.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace netsel;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// p in [0, 100]; 0 for an empty sample.
double pct(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : util::percentile(xs, p);
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv_double(std::uint64_t h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return fnv(h, bits);
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

// Spans go to the obs registry (recorded only while obs is enabled, so the
// untraced passes read no extra clocks). Every span opened inside an op
// carries that op's id as its "op" arg; 0 while no op is open.
std::uint64_t g_op = 0;
std::uint64_t g_ops = 0;

/// The span of one op: a fresh op id for it and the spans inside it.
class OpSpan {
 public:
  explicit OpSpan(std::string_view name) : span_(name, "bench") {
    g_op = ++g_ops;
    if (span_.active()) span_.arg("op", std::to_string(g_op));
  }
  ~OpSpan() { g_op = 0; }
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

 private:
  obs::Span span_;
};

/// Run `f` inside a span named `name`; returns its wall time in seconds.
template <class F>
double timed(std::string_view name, F&& f) {
  obs::Span span(name, "bench");
  if (span.active() && g_op != 0) span.arg("op", std::to_string(g_op));
  const auto t0 = Clock::now();
  f();
  return since(t0);
}

/// Per recorded span: its duration minus the part its children cover. A
/// child is a later-starting span of the same thread inside its interval.
std::vector<double> self_us(const std::vector<obs::SpanRecord>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const obs::SpanRecord &x = spans[a], &y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    return x.dur_us > y.dur_us;  // the parent first on a shared start
  });
  std::vector<double> self(spans.size());
  std::vector<std::size_t> open;  // enclosing spans of the current thread
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const obs::SpanRecord& s = spans[i];
    self[i] = s.dur_us;
    if (k > 0 && spans[order[k - 1]].tid != s.tid) open.clear();
    while (!open.empty() && spans[open.back()].ts_us +
                                    spans[open.back()].dur_us <=
                                s.ts_us)
      open.pop_back();
    if (!open.empty()) self[open.back()] -= s.dur_us;
    open.push_back(i);
  }
  return self;
}

/// Durations (ms) of every recorded span with this name.
std::vector<double> durations_ms(const std::vector<obs::SpanRecord>& spans,
                                 std::string_view name) {
  std::vector<double> out;
  for (const obs::SpanRecord& s : spans)
    if (s.name == name) out.push_back(s.dur_us / 1e3);
  return out;
}

/// Zero the registry's metrics for the timed phase, keeping the spans the
/// set-up recorded.
void reset_metrics_keep_spans() {
  obs::Registry& reg = obs::Registry::global();
  std::vector<obs::SpanRecord> spans = reg.spans();
  reg.reset();
  for (obs::SpanRecord& s : spans) reg.record_span(std::move(s));
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Everything one pass of a workload measured and checked.
struct Pass {
  std::vector<double> setup_s;     // one per set-up
  std::vector<double> generate_s;  // topology generation, one per set-up
  std::vector<double> op_ms;       // one per timed op
  double timed_s = 0.0;            // wall time of the timed phase
  long long attempted = 0;
  long long failed = 0;
  double objective_sum = 0.0;
  long long objective_n = 0;
  std::uint64_t digest = kFnvBasis;
  Metrics layer;  // per-layer metrics (meaningful on the traced pass)
  std::vector<std::string> failures;

  double ops_per_s() const {
    return timed_s > 0.0 ? static_cast<double>(op_ms.size()) / timed_s : 0.0;
  }
  double objective_mean() const {
    return objective_n > 0 ? objective_sum / static_cast<double>(objective_n)
                           : 0.0;
  }
  void expect(bool ok, const std::string& what) {
    if (!ok && failures.size() < 20) failures.push_back(what);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 4242;
  int seconds = 10;
  bool small = false;  // --check sizes
  int pool_workers = -1;  // -1: min(4, nproc) - 1
  std::string out_dir;
};

/// Workers for the service pool: the waiting caller runs a lane too, so
/// min(4, nproc) - 1 workers keep at most min(4, nproc) threads busy.
int default_pool_workers() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(4u, hw)) - 1;
}

/// Fills the per-layer metrics every workload reports from the obs registry
/// (zero where the workload never reaches that layer).
void registry_metrics(Metrics& m) {
  std::map<std::string, std::uint64_t> c;
  for (const auto& [name, v] : obs::Registry::global().counters()) c[name] = v;
  auto count = [&](const char* name) {
    m[name] = {static_cast<double>(c[name]), "count"};
  };
  for (const char* name :
       {"select.ctx.delta.applied", "select.ctx.rows.repaired",
        "select.ctx.rows.invalidated.partial",
        "select.ctx.rows.invalidated.full", "select.ctx.invalidations",
        "select.ctx.rows.batched", "select.ctx.rows.scalar_fallback",
        "select.prune.dropped", "pool.tasks_run", "pool.steals",
        "pool.idle_transitions", "obs.trace.spans"})
    count(name);
  const double hits = static_cast<double>(c["select.ctx.row_hits"]);
  const double lookups = hits + static_cast<double>(c["select.ctx.row_misses"]);
  m["select.row_hit_ratio"] = {lookups > 0.0 ? hits / lookups : 0.0, "ratio"};
  const double calls = static_cast<double>(c["api.reselect.calls"]);
  m["api.reselect.migrations_per_call"] = {
      calls > 0.0 ? static_cast<double>(c["api.reselect.migrations"]) / calls
                  : 0.0,
      "count"};
  // Per-criterion selector latency, as the selection layer records it (also
  // inside the scheduler, where this program cannot put a span).
  constexpr std::string_view kSel = "select.latency_s.";
  for (const auto& h : obs::Registry::global().histograms()) {
    if (h.count == 0 || h.name.rfind(kSel, 0) != 0) continue;
    const std::string base =
        "select.latency_ms." + h.name.substr(kSel.size());
    m[base + ".p50"] = {h.quantile(0.50) * 1e3, "ms"};
    m[base + ".p99"] = {h.quantile(0.99) * 1e3, "ms"};
  }
}

/// Per-layer metrics read off the spans this program recorded.
void span_metrics(Metrics& m) {
  const std::vector<obs::SpanRecord> spans = obs::Registry::global().spans();
  auto p50 = [&](const char* span, const char* metric) {
    const auto d = durations_ms(spans, span);
    if (!d.empty()) m[metric] = {pct(d, 50), "ms"};
  };
  p50("select.links_by_fraction", "select.orders_ms");
  p50("select.eligibility", "select.eligibility_ms");
  p50("select.base_components", "select.components_ms");
  p50("topo.flat", "topo.flat_build_ms");
  p50("api.reselect", "api.reselect_ms.p50");
  if (const auto d = durations_ms(spans, "select.links_by_bw"); !d.empty()) {
    m["select.revalidate_ms.p50"] = {pct(d, 50), "ms"};
    m["select.revalidate_ms.p99"] = {pct(d, 99), "ms"};
  }
  const std::vector<double> self = self_us(spans);
  std::vector<double> selector, writes;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string_view name = spans[i].name;
    if (name == "select.select_nodes") selector.push_back(self[i] / 1e3);
    if (name.rfind("remos.set_", 0) == 0 || name.rfind("remos.notify_", 0) == 0)
      writes.push_back(self[i]);
  }
  if (!selector.empty()) m["select.selector_ms"] = {pct(selector, 50), "ms"};
  if (!writes.empty()) m["remos.write_us.p50"] = {pct(writes, 50), "us"};
}

/// Time the cold fills of a context that has its Fig. 3 deletion order, each
/// in its own span, in a fixed order: eligibility, the base components, then
/// the flat arena (which then times the arena alone: the CSR it packs was
/// built for the components).
void probe_fills(const select::SelectionContext& ctx,
                 const select::SelectionOptions& opt, Metrics& m) {
  timed("select.eligibility", [&] { (void)ctx.eligibility(opt); });
  timed("select.base_components", [&] { ctx.base_components(); });
  timed("topo.flat", [&] { ctx.flat(); });
  m["topo.arena_bytes"] = {static_cast<double>(ctx.arena_bytes()), "bytes"};
}

/// The same fills on a fresh context over `snap`, the order first.
void probe_fresh_fills(const remos::NetworkSnapshot& snap,
                       const select::SelectionOptions& opt, Metrics& m) {
  OpSpan op("probe.fills");
  select::SelectionContext ctx(snap);
  timed("select.links_by_fraction", [&] { ctx.links_by_fraction(opt); });
  probe_fills(ctx, opt, m);
}

/// Seed the synthetic load and record the mean cost of one snapshot write
/// (a set-up cost: the seeding writes are part of setup_s).
void seed_snapshot(remos::NetworkSnapshot& snap, std::uint64_t seed,
                   Metrics& m) {
  const topo::TopologyGraph& g = snap.graph();
  const double writes =
      static_cast<double>(g.compute_node_count() + g.link_count());
  const double s = timed("remos.apply_synthetic_load",
                         [&] { remos::apply_synthetic_load(snap, seed + 7); });
  m["remos.write_ns"] = {s * 1e9 / writes, "ns"};
}

/// The per-layer metrics of a traced pass, and with --out its spans as a
/// Chrome trace (plus the service recorders' tracks) and layers.json: per
/// span name its count, total time and self time.
void finish_traced(const Options& o, Metrics& m,
                   const obs::TimeSeriesRecorder* ts = nullptr,
                   const obs::JobTraceRecorder* jt = nullptr);

topo::FatTreeOptions fat_tree_options(const Options& o) {
  return o.small ? topo::fat_tree_for_hosts(128, 16, 2.0, o.seed)
                 : topo::fat_tree_for_hosts(10000, 48, 3.0, o.seed);
}

/// Generate the fabric in a span, recording the generation time.
template <class Make>
topo::TopologyGraph generate(Pass& out, Make&& make) {
  topo::TopologyGraph g;
  out.generate_s.push_back(timed("topo.generate", [&] { g = make(); }));
  return g;
}

/// A workload replays its inputs through netsel's public calls.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Run `setups` set-ups (each with its warm-up ops; the last one goes on
  /// into the timed phase) with the obs registry on or off as `traced`.
  virtual Pass run(int setups, bool traced) = 0;
};

// ---------------------------------------------------------------------------
// service_batched / service_event
// ---------------------------------------------------------------------------

/// One set-up of the scheduler: the fabric it views, the pool and the
/// recorders it uses (declared first, so they outlive it).
struct ServiceState {
  topo::TopologyGraph g;
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<obs::TimeSeriesRecorder> ts;
  std::unique_ptr<obs::JobTraceRecorder> jt;
  std::unique_ptr<sched::SchedulerService> sched;
  std::size_t next = 0;  // next arrival to submit
  double now = 0.0;      // sim time the last run_until reached
};

struct StepResult {
  double call_s = 0.0;    // the run_until call
  double submit_s = 0.0;  // the submit calls before it
  std::uint64_t placed = 0, completed = 0, epochs = 0;
};

class ServiceWorkload : public Workload {
 public:
  ServiceWorkload(const Options& o, bool batched)
      : o_(o), batched_(batched) {
    const int jobs = o.small ? 80 : (batched ? 150 : 200) * o.seconds;
    sched::WorkloadConfig w;
    w.arrival_rate = 2.0;  // Poisson: 2 jobs per simulated second
    w.seed = o.seed;
    sched::JobStream stream(w);
    for (int i = 0; i < jobs; ++i) arrivals_.push_back(stream.next());
    warm_ = std::max<std::size_t>(1, arrivals_.size() / 10);
    last_ = arrivals_.back().time;
  }

  Pass run(int setups, bool traced) override {
    Pass out;
    std::unique_ptr<ServiceState> st;
    std::uint64_t warm_digest = 0;
    for (int s = 0; s < setups; ++s) {
      st.reset();  // one set-up alive at a time: peak RSS is one set-up's
      const auto t0 = Clock::now();
      st = set_up(out, traced);
      while (st->next < warm_) step(*st);
      out.setup_s.push_back(since(t0));
      const std::uint64_t d = st->sched->state_digest();
      out.expect(s == 0 || d == warm_digest,
                 "warm-up state_digest differs between set-ups");
      warm_digest = d;
    }
    timed_phase(*st, out, traced);
    check_drained(*st, out);
    if (traced) finish_traced(o_, out.layer, st->ts.get(), st->jt.get());
    return out;
  }

 private:
  std::unique_ptr<ServiceState> set_up(Pass& out, bool traced) {
    auto st = std::make_unique<ServiceState>();
    const topo::FatTreeOptions fo = fat_tree_options(o_);
    host_bw_ = fo.host_bw;
    st->g = generate(out, [&] { return topo::fat_tree(fo); });
    const int workers = o_.pool_workers >= 0 ? o_.pool_workers
                                             : default_pool_workers();
    st->pool = std::make_unique<util::ThreadPool>(workers);
    sched::SchedulerConfig cfg;
    cfg.placement_lanes = 4;
    cfg.backfill_window = 8;
    cfg.schedule_interval = batched_ ? kTick : 0.0;
    cfg.rebalance_on_release = true;
    cfg.rebalance_budget = 2;
    cfg.pool = st->pool.get();
    if (traced) {
      st->ts = std::make_unique<obs::TimeSeriesRecorder>(1.0);
      st->jt = std::make_unique<obs::JobTraceRecorder>();
      cfg.timeseries = st->ts.get();
      cfg.job_trace = st->jt.get();
    }
    st->sched = std::make_unique<sched::SchedulerService>(st->g, cfg);
    seed_snapshot(st->sched->snapshot(), o_.seed, out.layer);
    // Tenant policies answer the mid-trace coverage brownout differently:
    // airshed stays Full, fft falls to Smoothed, mri to the capacity prior.
    sched::TenantPolicy tolerant;
    tolerant.degradation.smoothed_below = 0.7;
    st->sched->set_tenant_policy("airshed", tolerant);
    sched::TenantPolicy strict;
    strict.degradation.prior_below = 0.8;
    st->sched->set_tenant_policy("mri", strict);
    if (traced) {
      select::SelectionOptions opt;
      opt.num_nodes = 4;
      probe_fresh_fills(st->sched->snapshot(), opt, out.layer);
    }
    return st;
  }

  /// Where the next run_until goes: one 2 s tick when batched. Per event,
  /// first to just before the next arrival (the departures since the last
  /// one are released and rebalanced as they fall due), then to the arrival
  /// itself, so a placement's call carries its own round only.
  double next_target(const ServiceState& st) const {
    if (batched_ || st.next >= arrivals_.size()) return st.now + kTick;
    const double arrival = arrivals_[st.next].time;
    const double before = std::nextafter(arrival, -1.0);
    return st.now < before ? before : arrival;
  }

  /// One closed-loop step: submit the arrivals due by the next target, then
  /// one run_until to it.
  StepResult step(ServiceState& st) {
    OpSpan op("service.step");
    const double target = next_target(st);
    const sched::SchedulerStats before = st.sched->stats();
    const std::uint64_t epoch = st.sched->snapshot().epoch();
    StepResult r;
    while (st.next < arrivals_.size() && arrivals_[st.next].time <= target) {
      const auto& a = arrivals_[st.next++];
      r.submit_s += timed("sched.submit",
                          [&] { st.sched->submit(a.spec, a.time); });
    }
    // Coverage brownout over the middle third of the trace.
    const bool brownout = target > last_ / 3.0 && target <= 2.0 * last_ / 3.0;
    st.sched->set_measurement_coverage(brownout ? 0.75 : 1.0);
    r.call_s = timed("sched.run_until", [&] { st.sched->run_until(target); });
    st.now = target;
    const sched::SchedulerStats after = st.sched->stats();
    r.placed = after.placed - before.placed;
    r.completed = after.completed - before.completed;
    r.epochs = st.sched->snapshot().epoch() - epoch;
    return r;
  }

  void timed_phase(ServiceState& st, Pass& out, bool traced) {
    if (traced) reset_metrics_keep_spans();
    const sched::SchedulerStats s0 = st.sched->stats();
    std::vector<double> release_ms;
    std::uint64_t epochs = 0;
    auto record = [&](const StepResult& r) {
      out.timed_s += r.call_s + r.submit_s;
      out.op_ms.insert(out.op_ms.end(), r.placed, r.call_s * 1e3);
      if (r.placed == 0 && r.completed > 0) release_ms.push_back(r.call_s * 1e3);
      epochs += r.epochs;
      check_exclusive(st, out);
    };
    while (st.next < arrivals_.size()) record(step(st));
    // Batched: tick until the queue has emptied, so every placement happens
    // inside a run_until call this program timed.
    for (int guard = 0; st.sched->stats().queued > 0 && guard < 100000; ++guard)
      record(step(st));
    {
      OpSpan op("service.drain");
      const std::uint64_t placed = st.sched->stats().placed;
      const std::uint64_t epoch = st.sched->snapshot().epoch();
      const double d = timed("sched.drain", [&] { st.sched->drain(); });
      out.timed_s += d;
      out.op_ms.insert(out.op_ms.end(), st.sched->stats().placed - placed,
                       d * 1e3);
      epochs += st.sched->snapshot().epoch() - epoch;
    }
    const sched::SchedulerStats s1 = st.sched->stats();
    Metrics& m = out.layer;
    const double placed = static_cast<double>(s1.placed - s0.placed);
    m["sched.conflict_ratio"] = {
        placed > 0 ? static_cast<double>(s1.conflicts - s0.conflicts) / placed
                   : 0.0,
        "ratio"};
    m["sched.rebalance.migrations"] = {
        static_cast<double>(s1.rebalance_migrations - s0.rebalance_migrations),
        "count"};
    m["sched.place.infeasible"] = {
        static_cast<double>(s1.infeasible_attempts - s0.infeasible_attempts),
        "count"};
    m["remos.deltas_per_op"] = {
        placed > 0 ? static_cast<double>(epochs) / placed : 0.0, "count"};
    if (!release_ms.empty()) {
      m["sched.release_step_ms.p50"] = {pct(release_ms, 50), "ms"};
      m["sched.release_step_ms.p99"] = {pct(release_ms, 99), "ms"};
    }
  }

  /// No two running jobs may hold the same node.
  void check_exclusive(const ServiceState& st, Pass& out) {
    stamp_.resize(st.g.node_count(), 0);
    ++round_;
    for (const sched::JobRecord& rec : st.sched->jobs()) {
      if (rec.state != sched::JobState::Running) continue;
      for (topo::NodeId n : rec.nodes) {
        auto& s = stamp_[static_cast<std::size_t>(n)];
        if (s == round_)
          out.expect(false, "two running jobs share node " + std::to_string(n));
        s = round_;
      }
    }
  }

  void check_drained(const ServiceState& st, Pass& out) {
    const sched::SchedulerService& sc = *st.sched;
    std::vector<double> latency, wait;
    std::vector<double> candidates;
    for (const sched::JobRecord& rec : sc.jobs()) {
      if (rec.state != sched::JobState::Completed &&
          rec.state != sched::JobState::Rejected &&
          rec.state != sched::JobState::TimedOut)
        out.expect(false, "job " + std::to_string(rec.id) +
                              " not terminal after drain");
      if (rec.id < warm_) continue;
      ++out.attempted;
      if (rec.start_time < 0.0) {
        ++out.failed;
        continue;
      }
      // Criterion scores on one [0, 1] scale: max-bandwidth scores are
      // bits/s, so they count as a fraction of the host link's peak.
      out.objective_sum += rec.spec.criterion == select::Criterion::MaxBandwidth
                               ? rec.objective / host_bw_
                               : rec.objective;
      ++out.objective_n;
      latency.push_back(rec.placement_seconds * 1e3);
      wait.push_back(rec.wait_time());
      candidates.push_back(static_cast<double>(rec.candidates));
    }
    // The drained cluster must read exactly like a freshly seeded one.
    remos::NetworkSnapshot ref(st.g);
    remos::apply_synthetic_load(ref, o_.seed + 7);
    bool restored = true;
    for (std::size_t n = 0; n < st.g.node_count(); ++n)
      restored &= sc.snapshot().cpu(static_cast<topo::NodeId>(n)) ==
                  ref.cpu(static_cast<topo::NodeId>(n));
    for (std::size_t l = 0; l < st.g.link_count(); ++l)
      for (bool fwd : {true, false})
        restored &= sc.snapshot().bw_dir(static_cast<topo::LinkId>(l), fwd) ==
                    ref.bw_dir(static_cast<topo::LinkId>(l), fwd);
    out.expect(restored, "drained snapshot differs from the seeded one");
    out.digest = sc.state_digest();
    Metrics& m = out.layer;
    m["sched.placement_latency_ms.p50"] = {pct(latency, 50), "ms"};
    m["sched.placement_latency_ms.p99"] = {pct(latency, 99), "ms"};
    m["sched.queue_wait_s.p50"] = {pct(wait, 50), "sim_s"};
    m["api.candidate_set_size.p50"] = {pct(candidates, 50), "count"};
  }

  static constexpr double kTick = 2.0;  // schedule_interval when batched
  const Options& o_;
  bool batched_;
  std::vector<sched::JobStream::Arrival> arrivals_;
  std::size_t warm_ = 1;
  double last_ = 0.0;
  double host_bw_ = 1.0;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t round_ = 0;
};

// ---------------------------------------------------------------------------
// cold_1m
// ---------------------------------------------------------------------------

struct ColdState {
  topo::TopologyGraph g;
  std::unique_ptr<remos::NetworkSnapshot> snap;
};

class ColdWorkload : public Workload {
 public:
  explicit ColdWorkload(const Options& o) : o_(o) {
    opt_.num_nodes = 64;
    queries_ = o.small ? 3 : std::max(3, (9 * o.seconds + 5) / 10);
  }

  Pass run(int setups, bool traced) override {
    Pass out;
    std::unique_ptr<ColdState> st;
    for (int s = 0; s < setups; ++s) {
      st.reset();
      const auto t0 = Clock::now();
      st = std::make_unique<ColdState>();
      st->g = generate(out, [&] {
        return topo::three_level_fat_tree(
            o_.small
                ? topo::three_level_fat_tree_for_hosts(4096, 24, 3.0, 1024,
                                                       o_.seed)
                : topo::three_level_fat_tree_for_hosts(1000000, 48, 3.0, 1024,
                                                       o_.seed));
      });
      st->snap = std::make_unique<remos::NetworkSnapshot>(st->g);
      seed_snapshot(*st->snap, o_.seed, out.layer);
      const select::SelectionResult warm = query(*st, nullptr, out.layer);
      out.setup_s.push_back(since(t0));
      out.expect(s == 0 || (warm.nodes == ref_.nodes &&
                            warm.objective == ref_.objective),
                 "warm-up query differs between set-ups");
      ref_ = warm;
    }
    if (traced) reset_metrics_keep_spans();
    for (int q = 0; q < queries_; ++q) {
      double dt = 0.0;
      const select::SelectionResult r = query(*st, &dt, out.layer);
      out.op_ms.push_back(dt * 1e3);
      out.timed_s += dt;
      ++out.attempted;
      out.failed += r.feasible ? 0 : 1;
      out.expect(r.feasible, "cold query infeasible");
      out.expect(r.nodes == ref_.nodes && r.objective == ref_.objective,
                 "cold query selected a different set");
      out.objective_sum += r.objective;
      ++out.objective_n;
      out.digest = fnv_double(out.digest, r.objective);
      for (topo::NodeId n : r.nodes)
        out.digest = fnv(out.digest, static_cast<std::uint64_t>(n));
    }
    out.layer["remos.deltas_per_op"] = {0.0, "count"};
    if (traced) finish_traced(o_, out.layer);
    return out;
  }

 private:
  /// One cold query: construct a context and select. Traced, the Fig. 3
  /// order the selector reads gets its own span, and the fills the balanced
  /// selector never needs (eligibility aside, which it recomputes) are timed
  /// on the same context after the op, so traced and untraced ops do the
  /// same work.
  select::SelectionResult query(const ColdState& st, double* dt, Metrics& m) {
    std::unique_ptr<select::SelectionContext> ctx;
    select::SelectionResult r;
    {
      OpSpan op("cold.query");
      const auto t0 = Clock::now();
      ctx = std::make_unique<select::SelectionContext>(*st.snap);
      if (obs::enabled())
        timed("select.links_by_fraction",
              [&] { ctx->links_by_fraction(opt_); });
      timed("select.select_nodes", [&] {
        r = select::select_nodes(select::Criterion::Balanced, *ctx, opt_);
      });
      if (dt) *dt = since(t0);
    }
    if (obs::enabled() && dt) {
      OpSpan probe("probe.fills");
      probe_fills(*ctx, opt_, m);
    }
    return r;
  }

  const Options& o_;
  select::SelectionOptions opt_;
  int queries_ = 9;
  select::SelectionResult ref_;
};

// ---------------------------------------------------------------------------
// churn_10k
// ---------------------------------------------------------------------------

/// The long-lived context and the fabric it watches. Members reference
/// earlier members, so the state is built in place and never moved.
struct ChurnState {
  explicit ChurnState(topo::TopologyGraph graph, std::uint64_t seed)
      : g(std::move(graph)), snap(g), rng(seed, "benchmark.churn") {}
  ChurnState(const ChurnState&) = delete;
  ChurnState& operator=(const ChurnState&) = delete;

  topo::TopologyGraph g;
  remos::NetworkSnapshot snap;
  std::unique_ptr<select::SelectionContext> ctx;
  util::Rng rng;
  std::vector<topo::NodeId> placement;  // tracked, ascending
  std::vector<topo::NodeId> hosts;
  std::vector<topo::LinkId> live;       // links bandwidth writes may hit
  std::vector<std::int64_t> live_pos;   // link id -> index in live, or -1
  std::vector<topo::LinkId> access;     // host id -> access link, or -1
  struct Removed {  // a detached host and the link to re-add, as it was
    topo::NodeId host, a, b;
    double cap_ab, cap_ba;
  };
  std::vector<Removed> removed;
};

class ChurnWorkload : public Workload {
 public:
  explicit ChurnWorkload(const Options& o) : o_(o) {
    steps_ = o.small ? 200 : 200 * o.seconds;
    warm_ = std::max(1, steps_ / 10);
    opt_.num_nodes = 16;
  }

  Pass run(int setups, bool traced) override {
    Pass out;
    std::unique_ptr<ChurnState> st;
    std::uint64_t warm_digest = 0;
    for (int s = 0; s < setups; ++s) {
      st.reset();
      const auto t0 = Clock::now();
      st = set_up(out, traced);
      Pass warm;
      for (int i = 0; i < warm_; ++i) step(*st, warm, false);
      out.setup_s.push_back(since(t0));
      out.expect(s == 0 || warm.digest == warm_digest,
                 "warm-up steps differ between set-ups");
      out.expect(warm.failures.empty(), "warm-up step failed");
      warm_digest = warm.digest;
    }
    if (traced) reset_metrics_keep_spans();
    const std::uint64_t epoch = st->snap.epoch();
    const int every = o_.small ? 10 : 100;
    for (int i = warm_; i < steps_; ++i)
      step(*st, out, (i - warm_) % every == every - 1);
    out.layer["remos.deltas_per_op"] = {
        static_cast<double>(st->snap.epoch() - epoch) /
            static_cast<double>(steps_ - warm_),
        "count"};
    if (traced) finish_traced(o_, out.layer);
    return out;
  }

 private:
  std::unique_ptr<ChurnState> set_up(Pass& out, bool traced) {
    topo::TopologyGraph g =
        generate(out, [&] { return topo::fat_tree(fat_tree_options(o_)); });
    auto st = std::make_unique<ChurnState>(std::move(g), o_.seed);
    seed_snapshot(st->snap, o_.seed, out.layer);
    if (traced) probe_fresh_fills(st->snap, opt_, out.layer);
    st->ctx = std::make_unique<select::SelectionContext>(st->snap);
    st->hosts = st->g.compute_nodes();
    st->access.assign(st->g.node_count(), topo::kInvalidLink);
    for (topo::NodeId h : st->hosts)
      st->access[static_cast<std::size_t>(h)] = st->g.links_of(h)[0];
    st->live_pos.assign(st->g.link_count(), -1);
    for (std::size_t l = 0; l < st->g.link_count(); ++l) {
      st->live_pos[l] = static_cast<std::int64_t>(st->live.size());
      st->live.push_back(static_cast<topo::LinkId>(l));
    }
    select::SelectionResult init =
        select::select_nodes(select::Criterion::Balanced, *st->ctx, opt_);
    st->placement = init.nodes;
    std::sort(st->placement.begin(), st->placement.end());
    return st;
  }

  /// One snapshot write: 50% link bandwidth, 45% host load, 5% structural
  /// (remove a host's access link, or re-add one removed earlier; hosts of
  /// the tracked placement are never disconnected).
  void write(ChurnState& st) {
    util::Rng& rng = st.rng;
    const double u = rng.uniform();
    if (u < 0.50) {
      const topo::LinkId l = st.live[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(st.live.size()) - 1))];
      const double bw = rng.uniform(0.05, 1.0) * st.snap.maxbw(l);
      timed("remos.set_bw", [&] { st.snap.set_bw(l, bw); });
      return;
    }
    if (u < 0.95) {
      const topo::NodeId n = st.hosts[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(st.hosts.size()) - 1))];
      const double load = rng.uniform(0.0, 4.0);
      timed("remos.set_loadavg", [&] { st.snap.set_loadavg(n, load); });
      return;
    }
    const std::size_t cap = std::max<std::size_t>(2, st.hosts.size() / 64);
    if (!st.removed.empty() &&
        (st.removed.size() >= cap || rng.bernoulli(0.5))) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(st.removed.size()) - 1));
      const ChurnState::Removed r = st.removed[i];
      st.removed[i] = st.removed.back();
      st.removed.pop_back();
      topo::LinkId id = topo::kInvalidLink;
      timed("remos.notify_link_added", [&] {
        id = st.g.add_link(r.a, r.b, r.cap_ab, r.cap_ba);
        st.snap.notify_link_added(id);
      });
      st.access[static_cast<std::size_t>(r.host)] = id;
      st.live_pos.resize(st.g.link_count(), -1);
      st.live_pos[static_cast<std::size_t>(id)] =
          static_cast<std::int64_t>(st.live.size());
      st.live.push_back(id);
      return;
    }
    const topo::NodeId h = st.hosts[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(st.hosts.size()) - 1))];
    const topo::LinkId l = st.access[static_cast<std::size_t>(h)];
    if (l == topo::kInvalidLink ||
        std::binary_search(st.placement.begin(), st.placement.end(), h))
      return;  // already detached, or tracked: this write is a no-op
    const topo::Link& link = st.g.link(l);
    st.removed.push_back({h, link.a, link.b, link.capacity_ab,
                          link.capacity_ba});
    timed("remos.notify_link_removed", [&] {
      st.g.remove_link(l);
      st.snap.notify_link_removed(l);
    });
    st.access[static_cast<std::size_t>(h)] = topo::kInvalidLink;
    // Swap-remove l from the live list.
    const auto pos =
        static_cast<std::size_t>(st.live_pos[static_cast<std::size_t>(l)]);
    st.live[pos] = st.live.back();
    st.live_pos[static_cast<std::size_t>(st.live[pos])] =
        static_cast<std::int64_t>(pos);
    st.live.pop_back();
    st.live_pos[static_cast<std::size_t>(l)] = -1;
  }

  /// One churn step; `verify` re-runs the selection and the reselect on a
  /// fresh context, which must agree bit for bit with the warm one.
  void step(ChurnState& st, Pass& out, bool verify) {
    select::SelectionResult sel;
    api::ReselectResult res;
    api::ReselectOptions ropt;
    ropt.max_migrations = kBudget;
    ropt.criterion = select::Criterion::Balanced;
    ropt.selection = opt_;
    double dt = 0.0;
    {
      OpSpan op("churn.step");
      const auto t0 = Clock::now();
      for (int w = 0; w < 8; ++w) write(st);
      timed("select.links_by_bw", [&] { st.ctx->links_by_bw(); });
      timed("select.select_nodes", [&] {
        sel = select::select_nodes(select::Criterion::Balanced, *st.ctx, opt_);
      });
      timed("api.reselect",
            [&] { res = api::reselect(*st.ctx, st.placement, ropt); });
      dt = since(t0);
    }
    if (verify) {
      select::SelectionContext fresh(st.snap);
      const select::SelectionResult s2 =
          select::select_nodes(select::Criterion::Balanced, fresh, opt_);
      const api::ReselectResult r2 = api::reselect(fresh, st.placement, ropt);
      out.expect(s2.nodes == sel.nodes && s2.objective == sel.objective &&
                     r2.nodes == res.nodes &&
                     r2.objective_after == res.objective_after,
                 "warm context differs from a fresh one");
    }
    out.op_ms.push_back(dt * 1e3);
    out.timed_s += dt;
    ++out.attempted;
    const bool ok = sel.feasible && res.feasible;
    out.failed += ok ? 0 : 1;
    out.expect(ok, "churn step infeasible");
    if (res.migrations > kBudget)
      out.expect(false, "reselect made " + std::to_string(res.migrations) +
                            " migrations over a budget of 2");
    out.objective_sum += sel.objective;
    ++out.objective_n;
    if (res.feasible) st.placement = res.nodes;
    out.digest = fnv_double(out.digest, sel.objective);
    out.digest = fnv_double(out.digest, res.objective_after);
    for (topo::NodeId n : st.placement)
      out.digest = fnv(out.digest, static_cast<std::uint64_t>(n));
  }

  static constexpr int kBudget = 2;
  const Options& o_;
  int steps_ = 2000;
  int warm_ = 200;
  select::SelectionOptions opt_;
};

// ---------------------------------------------------------------------------
// Running and reporting
// ---------------------------------------------------------------------------

constexpr const char* kWorkloads[] = {"service_batched", "service_event",
                                      "cold_1m", "churn_10k"};

/// Set-ups per --trace 0 run; setup_s is their median, which one set-up
/// slowed by a burst on a shared host cannot move.
constexpr int kSetups = 5;

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "cold_1m") return std::make_unique<ColdWorkload>(o);
  if (o.workload == "churn_10k") return std::make_unique<ChurnWorkload>(o);
  return std::make_unique<ServiceWorkload>(o, o.workload == "service_batched");
}

Pass run_pass(Workload& w, int setups, bool traced) {
  obs::Registry::global().reset();
  g_ops = 0;
  obs::set_enabled(traced);
  Pass p = w.run(setups, traced);
  obs::set_enabled(false);
  // Counts and ratios of layers this workload never reaches read 0.
  static const std::pair<const char*, const char*> kZeroIfAbsent[] = {
      {"sched.conflict_ratio", "ratio"},
      {"sched.rebalance.migrations", "count"},
      {"sched.place.infeasible", "count"},
      {"api.candidate_set_size.p50", "count"}};
  for (const auto& [name, unit] : kZeroIfAbsent)
    p.layer.try_emplace(name, Metric{0.0, unit});
  return p;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

void finish_traced(const Options& o, Metrics& m,
                   const obs::TimeSeriesRecorder* ts,
                   const obs::JobTraceRecorder* jt) {
  registry_metrics(m);
  span_metrics(m);
  if (o.out_dir.empty()) return;
  const obs::Registry& reg = obs::Registry::global();
  const std::string stem =
      o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed);
  {
    std::ofstream f(stem + ".trace.json");
    obs::write_chrome_trace(reg, f, ts, jt);
  }
  // Self time per span name: what each layer costs net of the calls it
  // makes into the layers below.
  struct Agg {
    std::vector<double> self_us;
    double total_us = 0.0;
  };
  std::map<std::string, Agg> by_name;
  const std::vector<obs::SpanRecord> spans = reg.spans();
  const std::vector<double> self = self_us(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Agg& a = by_name[spans[i].name];
    a.self_us.push_back(self[i]);
    a.total_us += spans[i].dur_us;
  }
  std::ofstream f(stem + ".layers.json");
  f << "{\n  \"workload\": " << json_string(o.workload) << ",\n  \"seed\": "
    << o.seed << ",\n  \"spans\": {";
  bool first = true;
  for (const auto& [name, a] : by_name) {
    double self_total = 0.0;
    for (double v : a.self_us) self_total += v;
    f << (first ? "\n" : ",\n") << "    " << json_string(name)
      << ": {\"count\": " << a.self_us.size()
      << ", \"total_ms\": " << json_number(a.total_us / 1e3)
      << ", \"self_ms\": " << json_number(self_total / 1e3)
      << ", \"self_p50_us\": " << json_number(pct(a.self_us, 50))
      << ", \"self_p99_us\": " << json_number(pct(a.self_us, 99)) << "}";
    first = false;
  }
  f << "\n  }\n}\n";
}

void print_result(const Options& o, int trace, const Pass& p,
                  const Metrics& m) {
  std::string out = "{\"workload\": " + json_string(o.workload) +
                    ", \"seed\": " + std::to_string(o.seed) +
                    ", \"seconds\": " + std::to_string(o.seconds) +
                    ", \"trace\": " + std::to_string(trace) +
                    ", \"correct\": " + (p.failures.empty() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(p.attempted) +
                    ", \"failed\": " + std::to_string(p.failed) +
                    ", \"ops\": " + std::to_string(p.op_ms.size()) +
                    ", \"objective_mean\": " + json_number(p.objective_mean());
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(p.digest));
  out += ", \"digest\": \"" + std::string(digest) + "\", \"failures\": [";
  for (std::size_t i = 0; i < p.failures.size(); ++i)
    out += (i ? ", " : "") + json_string(p.failures[i]);
  out += "], \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += (first ? "" : ", ") + json_string(name) +
           ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

/// The metrics of an untraced pass: the gated end-to-end ones and the op
/// timings and failure share reported beside them.
Metrics end_to_end(const Pass& p) {
  Metrics m;
  m["setup_s"] = {pct(p.setup_s, 50), "s"};
  m["ops_per_s"] = {p.ops_per_s(), "1/s"};
  m["op_p50_ms"] = {pct(p.op_ms, 50), "ms"};
  m["op_p99_ms"] = {pct(p.op_ms, 99), "ms"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  m["failed_frac"] = {p.attempted > 0 ? static_cast<double>(p.failed) /
                                            static_cast<double>(p.attempted)
                                      : 0.0,
                      "ratio"};
  return m;
}

/// Compare two passes of the same input that must agree bit for bit.
void expect_same(Pass& into, const Pass& a, const Pass& b, const char* what) {
  into.expect(a.digest == b.digest,
              std::string("state digest differs: ") + what);
  into.expect(a.objective_mean() == b.objective_mean(),
              std::string("objective_mean differs: ") + what);
}

int run_workload(const Options& o, int trace) {
  const auto w = make_workload(o);
  if (trace == 0) {
    Pass p = run_pass(*w, kSetups, false);
    print_result(o, 0, p, end_to_end(p));
    return p.failures.empty() ? 0 : 2;
  }
  Pass untraced = run_pass(*w, 1, false);
  Pass traced = run_pass(*w, 1, true);
  expect_same(traced, untraced, traced, "traced vs untraced");
  for (const std::string& f : untraced.failures) traced.expect(false, f);
  Metrics m = traced.layer;
  std::vector<double> gen = untraced.generate_s;
  gen.insert(gen.end(), traced.generate_s.begin(), traced.generate_s.end());
  m["topo.generate_s"] = {pct(gen, 50), "s"};
  // The op timings of the untraced pass. A shared host moves them by more
  // than the 10% cap on BENCHMARK.json's bounds (benchmark/README.md), so
  // they are reported with the per-layer metrics rather than gated.
  const Metrics plain = end_to_end(untraced);
  for (const char* name : {"ops_per_s", "op_p50_ms", "op_p99_ms"})
    m[name] = plain.at(name);
  m["select.objective_mean"] = {traced.objective_mean(), "score"};
  m["obs.overhead_frac"] = {
      untraced.ops_per_s() > 0.0
          ? 1.0 - traced.ops_per_s() / untraced.ops_per_s()
          : 0.0,
      "ratio"};
  print_result(o, 1, traced, m);
  return traced.failures.empty() ? 0 : 2;
}

/// Reduced-size smoke over every workload and every check.
int run_check(Options o) {
  o.small = true;
  int rc = 0;
  for (const char* w : kWorkloads) {
    o.workload = w;
    const auto t0 = Clock::now();
    const auto wl = make_workload(o);
    Pass untraced = run_pass(*wl, 2, false);
    Pass traced = run_pass(*wl, 1, true);
    Pass verdict;
    expect_same(verdict, untraced, traced, "traced vs untraced");
    if (o.workload == "service_batched") {
      Options serial = o;
      serial.pool_workers = 0;
      const Pass s = run_pass(*make_workload(serial), 1, false);
      expect_same(verdict, untraced, s, "pooled vs serial");
    }
    for (const Pass* p : {&untraced, &traced})
      for (const std::string& f : p->failures) verdict.expect(false, f);
    verdict.expect(untraced.op_ms.size() > 0, "no timed ops");
    // The paths each workload exists to exercise must have run.
    const std::map<std::string, const char*> exercised = {
        {"service_batched", "sched.conflict_ratio"},
        {"service_event", "sched.rebalance.migrations"},
        {"churn_10k", "select.ctx.rows.invalidated.full"}};
    if (const auto it = exercised.find(o.workload); it != exercised.end())
      verdict.expect(traced.layer[it->second].value > 0.0,
                     std::string(it->second) + " is 0");
    std::fprintf(stderr, "check %-16s %s (%zu ops, %.2f s)\n", w,
                 verdict.failures.empty() ? "OK" : "FAILED",
                 untraced.op_ms.size(), since(t0));
    for (const std::string& f : verdict.failures)
      std::fprintf(stderr, "  CHECK FAILED: %s\n", f.c_str());
    if (!verdict.failures.empty()) rc = 2;
  }
  std::fprintf(stderr, rc == 0 ? "check: OK\n" : "check: FAILED\n");
  return rc;
}

int usage() {
  std::fprintf(stderr,
               "usage: netsel_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n"
               "       netsel_bench --check [--out DIR]\n"
               "workloads: service_batched service_event cold_1m churn_10k\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  int trace = 0;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--check") {
      check = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atoi(argv[++i]);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--out" && has_value) {
      o.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!o.out_dir.empty()) std::filesystem::create_directories(o.out_dir);
  if (check) return run_check(o);
  const bool known = std::find(std::begin(kWorkloads), std::end(kWorkloads),
                               o.workload) != std::end(kWorkloads);
  if (!known || o.seconds < 1 || (trace != 0 && trace != 1)) return usage();
  return run_workload(o, trace);
}
