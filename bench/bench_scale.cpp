// Scalability of the selection stack on synthetic datacenter topologies
// (topo/synthetic.hpp): a grid of topology family x node count x criterion,
// timing each selection cold (fresh SelectionContext: deletion orders and
// components built during the call) and warm (orders cached).
//
// Headline contract (the exit status): balanced selection on the largest
// fat-tree in the run, cold, single-threaded, in under 1 s. The 1M-host
// cold query is benchmark/'s cold_1m workload.
//
// Usage: bench_scale [reps] [seed] [--csv] [--check] [--m M]
//                    [--metrics-json PATH] [--chrome-trace PATH]
// Defaults: 3 reps per cell, seed 4242, m = 16.
//   --m M            selection size for every cell (the paper's m).
//   --check          CI smoke: run every criterion once on a reduced grid
//                    and exit non-zero if any generator output fails to
//                    round-trip through the .topo serialiser. Tables are
//                    skipped.
//   --csv            append the machine-readable grid after the table.
//   --metrics-json P enable the obs registry and write its JSON document
//                    (schema netsel-metrics-v1) to P after the run.
//   --chrome-trace P enable the obs registry and write the recorded spans
//                    as Chrome trace_event JSON to P.
// Exits 2 if the headline misses its target.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "api/service.hpp"
#include "obs/metrics.hpp"
#include "obs_exports.hpp"
#include "remos/snapshot.hpp"
#include "select/algorithms.hpp"
#include "select/context.hpp"
#include "topo/parse.hpp"
#include "topo/synthetic.hpp"

namespace {

using namespace netsel;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
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
  int hosts = 0;
};

/// The benchmark grid; `reduced` is the --check smoke (small sizes, still
/// one instance of every family so every generator code path runs).
std::vector<CaseSpec> build_cases(std::uint64_t seed, bool reduced) {
  std::vector<CaseSpec> cases;
  auto add = [&](const char* family, topo::TopologyGraph g) {
    CaseSpec c{family, std::move(g), 0};
    for (std::size_t i = 0; i < c.graph.node_count(); ++i)
      if (c.graph.is_compute(static_cast<topo::NodeId>(i))) ++c.hosts;
    cases.push_back(std::move(c));
  };
  const std::vector<int> ft_hosts =
      reduced ? std::vector<int>{256} : std::vector<int>{512, 2048, 10000};
  for (int h : ft_hosts)
    add("fat_tree", topo::fat_tree(topo::fat_tree_for_hosts(h, 48, 3.0, seed)));
  {
    // Three-level variant: one small instance (generator coverage).
    auto o = topo::three_level_fat_tree_for_hosts(
        reduced ? 128 : 4096, reduced ? 8 : 24, 3.0, 1024, seed);
    add("fat_tree_3l", topo::three_level_fat_tree(o));
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
    add("campus_wan", topo::campus_wan(o));
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
    add("random_core_edge", topo::random_core_edge(o));
  }
  return cases;
}

bool same_selection(const select::SelectionResult& a,
                    const select::SelectionResult& b) {
  return a.feasible == b.feasible && a.nodes == b.nodes &&
         a.min_cpu == b.min_cpu && a.min_bw_fraction == b.min_bw_fraction &&
         a.objective == b.objective && a.iterations == b.iterations;
}

struct CriterionTiming {
  select::Criterion criterion;
  double cold_seconds = 0.0;  // first call on a fresh context
  double warm_seconds = 0.0;  // mean of the remaining reps
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
    select::SelectionOptions opt;
    opt.num_nodes = m;
    CriterionTiming t;
    t.criterion = c;
    select::SelectionContext ctx(snap);
    auto t0 = Clock::now();
    const auto cold = select::select_nodes(c, ctx, opt);
    t.cold_seconds = seconds_since(t0);
    if (reps > 1) {
      auto t1 = Clock::now();
      for (int r = 1; r < reps; ++r) {
        auto again = select::select_nodes(c, ctx, opt);
        if (!same_selection(cold, again)) std::abort();
      }
      t.warm_seconds = seconds_since(t1) / (reps - 1);
    } else {
      t.warm_seconds = t.cold_seconds;
    }
    out.timings.push_back(t);
  }
  return out;
}

int run_check(std::uint64_t seed, int m) {
  int rc = 0;
  auto cases = build_cases(seed, /*reduced=*/true);
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
    run_cell(spec, seed, m, 1);
  }
  std::fprintf(stderr, rc == 0 ? "check: OK\n" : "check: FAILED\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  std::uint64_t seed = 4242;
  int m = 16;
  bool csv = false;
  bool check = false;
  const char* metrics_path = nullptr;
  const char* trace_path = nullptr;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--m") == 0 && i + 1 < argc) {
      m = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      // A removed or misspelt flag must not be read as a positional.
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return 1;
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
  if (check) return run_check(seed, m);
  if (metrics_path || trace_path) obs::set_enabled(true);

  std::fprintf(stderr, "bench_scale: generating topologies (seed %llu)...\n",
               static_cast<unsigned long long>(seed));
  auto cases = build_cases(seed, /*reduced=*/false);

  std::printf(
      "== Selection at scale: synthetic fabrics, m=%d, %d reps, seed %llu ==\n"
      "   cold = fresh context; warm = cached deletion orders\n\n"
      "%-18s %8s %8s %8s  %-14s %9s %9s\n",
      m, reps, static_cast<unsigned long long>(seed), "family", "nodes",
      "links", "hosts", "criterion", "cold_ms", "warm_ms");
  std::vector<CellResult> cells;
  const CriterionTiming* headline = nullptr;
  const CaseSpec* headline_spec = nullptr;
  for (const CaseSpec& spec : cases) {
    cells.push_back(run_cell(spec, seed, m, reps));
    const CellResult& cell = cells.back();
    for (const CriterionTiming& t : cell.timings) {
      std::printf("%-18s %8zu %8zu %8d  %-14s %9.2f %9.2f\n", spec.family,
                  spec.graph.node_count(), spec.graph.link_count(),
                  spec.hosts, select::criterion_name(t.criterion),
                  t.cold_seconds * 1e3, t.warm_seconds * 1e3);
      if (t.criterion == select::Criterion::Balanced &&
          std::strncmp(spec.family, "fat_tree", 8) == 0 &&
          (!headline_spec ||
           spec.graph.node_count() > headline_spec->graph.node_count())) {
        headline = &t;
        headline_spec = &spec;
      }
    }
  }

  const bool within_target = headline && headline->cold_seconds < 1.0;
  if (headline) {
    std::printf(
        "headline: balanced m=%d on %zu-node %s cold in %.1f ms "
        "(target < 1000 ms): %s\n",
        m, headline_spec->graph.node_count(), headline_spec->family,
        headline->cold_seconds * 1e3, within_target ? "PASS" : "FAIL");
  }
  std::printf("peak RSS %.1f MiB\n",
              static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));
  if (csv) {
    std::printf("\n-- csv --\nfamily,nodes,links,hosts,criterion,cold_s,"
                "warm_s\n");
    for (const CellResult& cell : cells)
      for (const CriterionTiming& t : cell.timings)
        std::printf("%s,%zu,%zu,%d,%s,%.5f,%.5f\n", cell.spec->family,
                    cell.spec->graph.node_count(),
                    cell.spec->graph.link_count(), cell.spec->hosts,
                    select::criterion_name(t.criterion), t.cold_seconds,
                    t.warm_seconds);
  }
  // Export the process footprint alongside the context gauges so the
  // metrics document carries it too (scale profile of
  // scripts/check_metrics_json.py).
  obs::Registry::global()
      .gauge("proc.peak_rss_bytes")
      .set(static_cast<double>(peak_rss_bytes()));
  // Pre-register the service metrics so the exported document carries the
  // full schema (scripts/check_metrics_json.py requires the degradation
  // ladder), even though this benchmark never places through the service.
  api::register_service_metrics();
  if (!bench::write_obs_exports(metrics_path, trace_path)) return 1;
  return within_target ? 0 : 2;
}
