// Scalability of the selection stack on synthetic datacenter topologies
// (topo/synthetic.hpp): a grid of topology family x node count x criterion,
// timing each selection cold (fresh SelectionContext: deletion orders and
// components built during the call) and warm (orders cached), with
// dominated-candidate pruning on vs off, asserting the two produce
// bit-identical selections. On top of the grid:
//
//   * a warm_rows thread sweep (1/2/4/... pool workers vs the serial
//     build) on the largest fat-tree, asserting every thread count
//     produces bit-identical rows;
//   * with --huge, a ~1,000,000-host three-level fat-tree cell (balanced
//     criterion only) that becomes the headline;
//   * peak-RSS accounting in the JSON record.
//
// Headline contract (tracked in BENCH_scale.json and checked in CI):
// balanced selection on the largest fat-tree in the run, cold,
// single-threaded, in under 1 s.
//
// Usage: bench_scale [reps] [seed] [--csv] [--check] [--threads N]
//                    [--m M] [--huge] [--bench-json PATH]
//                    [--metrics-json PATH] [--chrome-trace PATH]
// Defaults: 3 reps per cell, seed 4242, m = 16.
//   --m M            selection size for every cell (the paper's m).
//   --huge           add the ~1M-host three-level fat-tree cell (balanced
//                    only; the other criteria stay on the grid sizes).
//   --threads N      top of the warm_rows sweep (N < 0: one per hardware
//                    thread, at least 4 so the curve is populated even on
//                    small CI runners; selection itself is always timed
//                    single-threaded).
//   --check          CI smoke: run a reduced grid once and exit non-zero if
//                    any pruned selection differs from its unpruned twin,
//                    any generator output fails to round-trip through the
//                    .topo serialiser, or threaded warm_rows differs from
//                    serial. Tables are skipped.
//   --csv            append the machine-readable grid after the table.
//   --bench-json P   write the perf record (per-cell timings, headline,
//                    thread curve, memory, counters) to P.
//   --metrics-json P enable the obs registry and write its JSON document
//                    (schema netsel-metrics-v1) to P after the run.
//   --chrome-trace P enable the obs registry and write the recorded spans
//                    as Chrome trace_event JSON to P.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "api/service.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "remos/snapshot.hpp"
#include "select/algorithms.hpp"
#include "select/context.hpp"
#include "topo/parse.hpp"
#include "topo/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace netsel;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t counter_value(const char* name) {
  for (const auto& [n, v] : obs::Registry::global().counters())
    if (n == name) return v;
  return 0;
}

/// Resident-set high-water mark of this process, in bytes (0 where the
/// platform has no getrusage). ru_maxrss is KiB on Linux, bytes on macOS.
std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss);
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
#endif
  }
#endif
  return 0;
}

struct CaseSpec {
  const char* family;
  topo::TopologyGraph graph;
  double build_seconds = 0.0;
  int hosts = 0;
  /// The --huge cell: cold balanced selection only. The deletion-order
  /// criteria would also finish, but at 1M+ links they dominate the run
  /// without adding coverage beyond the grid sizes.
  bool balanced_only = false;
};

/// The benchmark grid; `reduced` is the --check smoke (small sizes, still
/// one instance of every family so every generator code path runs).
std::vector<CaseSpec> build_cases(std::uint64_t seed, bool reduced,
                                  bool huge) {
  std::vector<CaseSpec> cases;
  auto add = [&](const char* family, topo::TopologyGraph g, double secs,
                 bool balanced_only = false) {
    CaseSpec c{family, std::move(g), secs, 0, balanced_only};
    for (std::size_t i = 0; i < c.graph.node_count(); ++i)
      if (c.graph.is_compute(static_cast<topo::NodeId>(i))) ++c.hosts;
    cases.push_back(std::move(c));
  };
  const std::vector<int> ft_hosts =
      reduced ? std::vector<int>{256} : std::vector<int>{512, 2048, 10000};
  for (int h : ft_hosts) {
    auto t0 = Clock::now();
    auto g = topo::fat_tree(topo::fat_tree_for_hosts(h, 48, 3.0, seed));
    add("fat_tree", std::move(g), seconds_since(t0));
  }
  {
    // Three-level variant: one small instance always (generator coverage),
    // plus the ~1M-host headline cell under --huge.
    auto o = topo::three_level_fat_tree_for_hosts(
        reduced ? 128 : 4096, reduced ? 8 : 24, 3.0, 1024, seed);
    auto t0 = Clock::now();
    auto g = topo::three_level_fat_tree(o);
    add("fat_tree_3l", std::move(g), seconds_since(t0));
  }
  if (huge) {
    auto o = topo::three_level_fat_tree_for_hosts(1000000, 48, 3.0, 1024,
                                                  seed);
    auto t0 = Clock::now();
    auto g = topo::three_level_fat_tree(o);
    add("fat_tree_3l", std::move(g), seconds_since(t0),
        /*balanced_only=*/true);
  }
  struct CampusSize {
    int campuses, buildings, hosts;
  };
  const std::vector<CampusSize> cw = reduced
                                         ? std::vector<CampusSize>{{4, 2, 8}}
                                         : std::vector<CampusSize>{
                                               {8, 4, 16}, {16, 8, 16}};
  for (const auto& s : cw) {
    topo::CampusWanOptions o;
    o.campuses = s.campuses;
    o.buildings_per_campus = s.buildings;
    o.hosts_per_building = s.hosts;
    o.seed = seed;
    auto t0 = Clock::now();
    auto g = topo::campus_wan(o);
    add("campus_wan", std::move(g), seconds_since(t0));
  }
  struct CoreEdgeSize {
    int cores, edges, hosts;
  };
  const std::vector<CoreEdgeSize> ce =
      reduced ? std::vector<CoreEdgeSize>{{8, 16, 128}}
              : std::vector<CoreEdgeSize>{{16, 64, 512}, {32, 128, 2048}};
  for (const auto& s : ce) {
    topo::RandomCoreEdgeOptions o;
    o.core_switches = s.cores;
    o.edge_switches = s.edges;
    o.hosts = s.hosts;
    o.seed = seed;
    auto t0 = Clock::now();
    auto g = topo::random_core_edge(o);
    add("random_core_edge", std::move(g), seconds_since(t0));
  }
  return cases;
}

bool same_selection(const select::SelectionResult& a,
                    const select::SelectionResult& b) {
  return a.feasible == b.feasible && a.nodes == b.nodes &&
         a.min_cpu == b.min_cpu && a.min_bw_fraction == b.min_bw_fraction &&
         a.objective == b.objective && a.iterations == b.iterations;
}

/// Two cached context rows, read at every node.
bool same_row(const select::SelectionContext::PairRow& a,
              const select::SelectionContext::PairRow& b, std::size_t nodes) {
  for (std::size_t v = 0; v < nodes; ++v) {
    const auto x = a.at(static_cast<topo::NodeId>(v));
    const auto y = b.at(static_cast<topo::NodeId>(v));
    if (x.reached != y.reached || x.bottleneck != y.bottleneck ||
        x.bottleneck2 != y.bottleneck2 || x.latency != y.latency)
      return false;
  }
  return true;
}

struct CriterionTiming {
  select::Criterion criterion;
  double cold_seconds = 0.0;   // first call on a fresh context, pruned
  double warm_seconds = 0.0;   // mean of the remaining reps, pruned
  double naive_seconds = 0.0;  // cold call with pruning disabled
  bool identical = false;
};

struct CellResult {
  const CaseSpec* spec = nullptr;
  std::vector<CriterionTiming> timings;
};

constexpr select::Criterion kCriteria[] = {select::Criterion::MaxCompute,
                                           select::Criterion::MaxBandwidth,
                                           select::Criterion::Balanced};

CellResult run_cell(const CaseSpec& spec, std::uint64_t seed, int m,
                    int reps) {
  obs::Span span("scale.cell", "bench");
  span.arg("family", spec.family);
  span.arg("nodes", std::to_string(spec.graph.node_count()));
  remos::NetworkSnapshot snap(spec.graph);
  remos::apply_synthetic_load(snap, seed + 7);
  CellResult out;
  out.spec = &spec;
  for (select::Criterion c : kCriteria) {
    if (spec.balanced_only && c != select::Criterion::Balanced) continue;
    select::SelectionOptions opt;
    opt.num_nodes = m;
    CriterionTiming t;
    t.criterion = c;
    select::SelectionResult pruned;
    if (spec.balanced_only) {
      // The huge cell: every rep is a fresh context (all cold — the
      // contract is about cold selections), best taken so one noisy
      // scheduler quantum at the ~1 s scale does not decide the record.
      t.cold_seconds = std::numeric_limits<double>::infinity();
      for (int r = 0; r < reps; ++r) {
        select::SelectionContext ctx(snap);
        auto t0 = Clock::now();
        auto again = select::select_nodes(c, ctx, opt);
        t.cold_seconds = std::min(t.cold_seconds, seconds_since(t0));
        if (r == 0)
          pruned = std::move(again);
        else if (!same_selection(pruned, again))
          std::abort();
      }
      t.warm_seconds = t.cold_seconds;
    } else {
      select::SelectionContext ctx(snap);
      auto t0 = Clock::now();
      pruned = select::select_nodes(c, ctx, opt);
      t.cold_seconds = seconds_since(t0);
      if (reps > 1) {
        auto t1 = Clock::now();
        for (int r = 1; r < reps; ++r) {
          auto again = select::select_nodes(c, ctx, opt);
          if (!same_selection(pruned, again)) std::abort();
        }
        t.warm_seconds = seconds_since(t1) / (reps - 1);
      } else {
        t.warm_seconds = t.cold_seconds;
      }
    }
    {
      select::SelectionOptions naive = opt;
      naive.prune_dominated = false;
      select::SelectionContext ctx(snap);
      auto t0 = Clock::now();
      auto unpruned = select::select_nodes(c, ctx, naive);
      t.naive_seconds = seconds_since(t0);
      t.identical = same_selection(pruned, unpruned);
    }
    out.timings.push_back(t);
  }
  return out;
}

// ---------------------------------------------------------- warm_rows sweep

std::vector<topo::NodeId> first_hosts(const topo::TopologyGraph& g,
                                      std::size_t limit) {
  std::vector<topo::NodeId> sources;
  for (std::size_t i = 0; i < g.node_count() && sources.size() < limit; ++i)
    if (g.is_compute(static_cast<topo::NodeId>(i)))
      sources.push_back(static_cast<topo::NodeId>(i));
  return sources;
}

struct SweepPoint {
  int workers = 0;
  double seconds = 0.0;
  bool identical = true;
};

/// Serial warm_rows baseline plus a worker-count curve, every point checked
/// bit-identical against the serial rows. Fresh contexts each so all start
/// cold.
struct WarmRowsResult {
  std::size_t nodes = 0;
  int sources = 0;
  double serial_seconds = 0.0;
  std::vector<SweepPoint> curve;
};

WarmRowsResult time_warm_rows(const remos::NetworkSnapshot& snap,
                              const std::vector<int>& worker_counts) {
  obs::Span span("scale.warm_rows", "bench");
  WarmRowsResult r;
  r.nodes = snap.graph().node_count();
  auto sources = first_hosts(snap.graph(), 64);
  r.sources = static_cast<int>(sources.size());
  select::SelectionContext serial_ctx(snap);
  {
    util::ThreadPool serial(0);
    auto t0 = Clock::now();
    serial_ctx.warm_rows(serial, sources);
    r.serial_seconds = seconds_since(t0);
  }
  for (int w : worker_counts) {
    util::ThreadPool pool(w);
    SweepPoint p;
    p.workers = pool.workers();
    select::SelectionContext ctx(snap);
    auto t0 = Clock::now();
    ctx.warm_rows(pool, sources);
    p.seconds = seconds_since(t0);
    for (topo::NodeId s : sources)
      if (!same_row(serial_ctx.pair_row(s), ctx.pair_row(s), r.nodes))
        p.identical = false;
    r.curve.push_back(p);
  }
  return r;
}

int run_check(std::uint64_t seed, int m, int threads) {
  int rc = 0;
  auto cases = build_cases(seed, /*reduced=*/true, /*huge=*/false);
  for (const CaseSpec& spec : cases) {
    // Generator outputs must round-trip through the .topo serialiser.
    auto text = topo::format_topology(spec.graph);
    auto reparsed = topo::parse_topology(text);
    if (reparsed.node_count() != spec.graph.node_count() ||
        reparsed.link_count() != spec.graph.link_count()) {
      std::fprintf(stderr, "CHECK FAILED: %s does not round-trip via .topo\n",
                   spec.family);
      rc = 2;
    }
    auto cell = run_cell(spec, seed, m, 1);
    for (const CriterionTiming& t : cell.timings) {
      if (!t.identical) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s (%zu nodes) %s: pruned selection "
                     "differs from unpruned\n",
                     spec.family, spec.graph.node_count(),
                     select::criterion_name(t.criterion));
        rc = 2;
      }
    }
    // Pool-threaded warm_rows must be bit-identical to the serial build on
    // every family.
    remos::NetworkSnapshot snap(spec.graph);
    remos::apply_synthetic_load(snap, seed + 7);
    auto wr = time_warm_rows(snap, {threads > 0 ? threads : 2});
    for (const SweepPoint& p : wr.curve) {
      if (!p.identical) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s (%zu nodes): warm_rows with %d "
                     "workers differs from serial\n",
                     spec.family, spec.graph.node_count(), p.workers);
        rc = 2;
      }
    }
  }
  std::fprintf(stderr, rc == 0 ? "check: OK\n" : "check: FAILED\n");
  return rc;
}

bool write_obs_exports(const char* metrics_path, const char* trace_path) {
  // Pre-register the service metrics so the exported document carries the
  // full schema (scripts/check_metrics_json.py requires the degradation
  // ladder), even though this benchmark never places through the service.
  api::register_service_metrics();
  bool ok = true;
  if (metrics_path) {
    std::ofstream f(metrics_path);
    if (f) {
      obs::write_json(obs::Registry::global(), f);
      std::fprintf(stderr, "wrote %s\n", metrics_path);
    } else {
      std::fprintf(stderr, "cannot open %s for writing\n", metrics_path);
      ok = false;
    }
  }
  if (trace_path) {
    std::ofstream f(trace_path);
    if (f) {
      obs::write_chrome_trace(obs::Registry::global(), f);
      std::fprintf(stderr, "wrote %s\n", trace_path);
    } else {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_path);
      ok = false;
    }
  }
  return ok;
}

int write_bench_json(const char* path, std::uint64_t seed, int m, int reps,
                     const std::vector<CellResult>& cells,
                     const CriterionTiming* headline,
                     const CaseSpec* headline_spec,
                     const WarmRowsResult& wr) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"scale\",\n"
               "  \"hardware_threads\": %u,\n"
               "  \"seed\": %llu,\n"
               "  \"m\": %d,\n"
               "  \"reps\": %d,\n"
               "  \"cells\": [\n",
               std::thread::hardware_concurrency(),
               static_cast<unsigned long long>(seed), m, reps);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"family\": \"%s\",\n"
                 "      \"nodes\": %zu,\n"
                 "      \"links\": %zu,\n"
                 "      \"hosts\": %d,\n"
                 "      \"build_seconds\": %.4f,\n"
                 "      \"criteria\": {\n",
                 cell.spec->family, cell.spec->graph.node_count(),
                 cell.spec->graph.link_count(), cell.spec->hosts,
                 cell.spec->build_seconds);
    for (std::size_t j = 0; j < cell.timings.size(); ++j) {
      const CriterionTiming& t = cell.timings[j];
      std::fprintf(f,
                   "        \"%s\": { \"cold_seconds\": %.5f, "
                   "\"warm_seconds\": %.5f, \"unpruned_cold_seconds\": %.5f, "
                   "\"identical\": %s }%s\n",
                   select::criterion_name(t.criterion), t.cold_seconds,
                   t.warm_seconds, t.naive_seconds,
                   t.identical ? "true" : "false",
                   j + 1 < cell.timings.size() ? "," : "");
    }
    std::fprintf(f, "      }\n    }%s\n", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  if (headline && headline_spec) {
    std::fprintf(f,
                 "  \"headline\": {\n"
                 "    \"contract\": \"balanced m=%d on the largest fat-tree, "
                 "cold, single-threaded, < 1 s\",\n"
                 "    \"family\": \"%s\",\n"
                 "    \"nodes\": %zu,\n"
                 "    \"hosts\": %d,\n"
                 "    \"cold_seconds\": %.5f,\n"
                 "    \"target_seconds\": 1.0,\n"
                 "    \"within_target\": %s\n"
                 "  },\n",
                 m, headline_spec->family, headline_spec->graph.node_count(),
                 headline_spec->hosts, headline->cold_seconds,
                 headline->cold_seconds < 1.0 ? "true" : "false");
  }
  std::fprintf(f,
               "  \"warm_rows\": {\n"
               "    \"nodes\": %zu,\n"
               "    \"sources\": %d,\n"
               "    \"serial_seconds\": %.5f,\n"
               "    \"curve\": [\n",
               wr.nodes, wr.sources, wr.serial_seconds);
  for (std::size_t i = 0; i < wr.curve.size(); ++i) {
    const SweepPoint& p = wr.curve[i];
    std::fprintf(f,
                 "      { \"workers\": %d, \"seconds\": %.5f, "
                 "\"speedup\": %.2f, \"identical\": %s }%s\n",
                 p.workers, p.seconds,
                 p.seconds > 0.0 ? wr.serial_seconds / p.seconds : 0.0,
                 p.identical ? "true" : "false",
                 i + 1 < wr.curve.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(f,
               "  \"memory\": {\n"
               "    \"peak_rss_bytes\": %llu\n"
               "  },\n"
               "  \"metrics\": {\n"
               "    \"prune_dropped\": %llu,\n"
               "    \"ctx_row_misses\": %llu\n"
               "  }\n"
               "}\n",
               static_cast<unsigned long long>(peak_rss_bytes()),
               static_cast<unsigned long long>(
                   counter_value("select.prune.dropped")),
               static_cast<unsigned long long>(
                   counter_value("select.ctx.row_misses")));
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  std::uint64_t seed = 4242;
  int threads = -1;
  int m = 16;
  bool csv = false;
  bool check = false;
  bool huge = false;
  const char* json_path = nullptr;
  const char* metrics_path = nullptr;
  const char* trace_path = nullptr;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--huge") == 0) {
      huge = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--m") == 0 && i + 1 < argc) {
      m = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--bench-json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (positional == 0) {
      reps = std::atoi(argv[i]);
      ++positional;
    } else {
      seed = static_cast<std::uint64_t>(std::strtoull(argv[i], nullptr, 10));
      ++positional;
    }
  }
  if (reps < 1) {
    std::fprintf(stderr, "reps must be >= 1\n");
    return 1;
  }
  if (m < 1) {
    std::fprintf(stderr, "m must be >= 1\n");
    return 1;
  }
  if (check) return run_check(seed, m, threads);
  if (json_path || metrics_path || trace_path) obs::set_enabled(true);

  std::fprintf(stderr, "bench_scale: generating topologies (seed %llu)...\n",
               static_cast<unsigned long long>(seed));
  auto cases = build_cases(seed, /*reduced=*/false, huge);

  std::printf(
      "== Selection at scale: synthetic fabrics, m=%d, %d reps, seed %llu ==\n"
      "   cold = fresh context; warm = cached deletion orders;\n"
      "   unpruned = cold with dominated-candidate pruning disabled\n\n"
      "%-18s %8s %8s %8s  %-14s %9s %9s %9s  %s\n",
      m, reps, static_cast<unsigned long long>(seed), "family", "nodes",
      "links", "hosts", "criterion", "cold_ms", "warm_ms", "unpr_ms", "same");
  std::vector<CellResult> cells;
  const CriterionTiming* headline = nullptr;
  const CaseSpec* headline_spec = nullptr;
  bool all_identical = true;
  for (const CaseSpec& spec : cases) {
    cells.push_back(run_cell(spec, seed, m, reps));
    const CellResult& cell = cells.back();
    for (const CriterionTiming& t : cell.timings) {
      std::printf("%-18s %8zu %8zu %8d  %-14s %9.2f %9.2f %9.2f  %s\n",
                  spec.family, spec.graph.node_count(),
                  spec.graph.link_count(), spec.hosts,
                  select::criterion_name(t.criterion), t.cold_seconds * 1e3,
                  t.warm_seconds * 1e3, t.naive_seconds * 1e3,
                  t.identical ? "yes" : "NO");
      all_identical = all_identical && t.identical;
      if (t.criterion == select::Criterion::Balanced &&
          std::strncmp(spec.family, "fat_tree", 8) == 0 &&
          (!headline_spec ||
           spec.graph.node_count() > headline_spec->graph.node_count())) {
        headline = &t;
        headline_spec = &spec;
      }
    }
  }

  // Warm-row thread curve on the largest *two-level* fat-tree: the
  // 64-source warm there is the cold path warm_rows serves in production.
  // (The --huge graph is left to the balanced cell — 64 full-graph rows at
  // 1M nodes would time the memory bus, not the row build.)
  const CaseSpec* largest_ft = nullptr;
  for (const CaseSpec& spec : cases)
    if (std::strcmp(spec.family, "fat_tree") == 0) largest_ft = &spec;
  WarmRowsResult wr;
  if (largest_ft) {
    remos::NetworkSnapshot snap(largest_ft->graph);
    remos::apply_synthetic_load(snap, seed + 7);
    std::vector<int> worker_counts;
    const int top =
        threads > 0 ? threads
                    : static_cast<int>(
                          std::max(4u, std::thread::hardware_concurrency()));
    for (int w = 1; w <= top; w *= 2) worker_counts.push_back(w);
    wr = time_warm_rows(snap, worker_counts);
    std::printf("\nwarm_rows on %zu-node fat-tree: %d rows serial %.2f ms\n",
                wr.nodes, wr.sources, wr.serial_seconds * 1e3);
    for (const SweepPoint& p : wr.curve) {
      std::printf("  %2d workers %8.2f ms (%.2fx)%s\n", p.workers,
                  p.seconds * 1e3,
                  p.seconds > 0.0 ? wr.serial_seconds / p.seconds : 0.0,
                  p.identical ? "" : "  IDENTITY FAILED");
      all_identical = all_identical && p.identical;
    }
  }

  if (headline && headline_spec) {
    std::printf(
        "headline: balanced m=%d on %zu-node %s cold in %.1f ms "
        "(target < 1000 ms): %s\n",
        m, headline_spec->graph.node_count(), headline_spec->family,
        headline->cold_seconds * 1e3,
        headline->cold_seconds < 1.0 ? "PASS" : "FAIL");
  }
  std::printf("peak RSS %.1f MiB\n",
              static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));
  if (csv) {
    std::printf("\n-- csv --\nfamily,nodes,links,hosts,criterion,cold_s,"
                "warm_s,unpruned_cold_s,identical\n");
    for (const CellResult& cell : cells)
      for (const CriterionTiming& t : cell.timings)
        std::printf("%s,%zu,%zu,%d,%s,%.5f,%.5f,%.5f,%d\n",
                    cell.spec->family, cell.spec->graph.node_count(),
                    cell.spec->graph.link_count(), cell.spec->hosts,
                    select::criterion_name(t.criterion), t.cold_seconds,
                    t.warm_seconds, t.naive_seconds, t.identical ? 1 : 0);
  }
  // Export the process footprint alongside the context gauges so the
  // metrics document carries it too (scale profile of
  // scripts/check_metrics_json.py).
  obs::Registry::global()
      .gauge("proc.peak_rss_bytes")
      .set(static_cast<double>(peak_rss_bytes()));
  if (json_path) {
    int rc = write_bench_json(json_path, seed, m, reps, cells, headline,
                              headline_spec, wr);
    if (rc != 0) return rc;
  }
  if (!write_obs_exports(metrics_path, trace_path)) return 1;
  return all_identical ? 0 : 2;
}
