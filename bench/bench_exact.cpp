// Optimality-gap certification bench: scores every greedy selector against
// the exact branch-and-bound selector (select/bnb.hpp) on the paper-scale
// synthetic families — family x m in {4,8,16,32,64} x criterion, plus the
// fixed-constraint x prioritization block the paper only sketches — and
// emits the measured gap table. Each cell carries a sound bracket
// greedy <= optimum <= bound and is marked `exact` (the budgeted search
// proved optimality) or with its stop reason (`node_budget`, ...), never
// silently truncated. Deterministic: node budgets only, seeded load,
// serial search — the default table is the same on every machine and
// build type, so the ctest Golden.ExactGrid pins it byte for byte
// (tests/golden/ExactGrid.stdout).
//
// Usage: bench_exact [--seed S] [--hosts N] [--budget N] [--csv]
//                    [--no-constraints] [--check]
//                    [--metrics-json PATH] [--chrome-trace PATH]
// Defaults: seed 7177, 120 hosts per family, 20000 expansions per cell.
//   --check      fast contract smoke for CI: a reduced grid (24 hosts,
//                m in {2,4}) must be sound in every cell (incumbent and
//                greedy never above the bound, certified cells closed),
//                and the B&B must reproduce the brute-force oracle
//                bit-exactly on the small fat-tree at every criterion.
//                Exits non-zero on violation.
//   --csv        append the machine-readable grid after the table.
//   --metrics-json P  enable the obs registry and write its JSON document
//                     (schema netsel-metrics-v1) to P — populates the
//                     select.bnb.* counters and select.latency_s.bnb.
//   --chrome-trace P  enable the obs registry and write recorded spans as
//                     Chrome trace_event JSON to P.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "exp/exact.hpp"
#include "obs/metrics.hpp"
#include "obs_exports.hpp"
#include "remos/snapshot.hpp"
#include "select/bnb.hpp"
#include "select/brute_force.hpp"
#include "select/context.hpp"
#include "topo/synthetic.hpp"

namespace {

using netsel::exp::ExactCell;
using netsel::exp::ExactGridOptions;

/// Soundness of one cell: nothing ever exceeds the certified bound, and a
/// certified cell is closed (incumbent == bound).
bool cell_sound(const ExactCell& c) {
  if (c.exact_feasible && !(c.exact_value <= c.upper_bound)) return false;
  if (c.greedy_feasible && std::isfinite(c.greedy_value) &&
      !(c.greedy_value <= c.upper_bound))
    return false;
  if (c.certified && c.exact_feasible && c.exact_value != c.upper_bound)
    return false;
  return true;
}

struct Headline {
  std::size_t cells = 0;
  std::size_t exact_cells = 0;
  std::size_t bounded_cells = 0;
  bool sound = true;
  double worst_greedy_ratio = std::numeric_limits<double>::infinity();
};

Headline summarize(const std::vector<ExactCell>& cells) {
  Headline h;
  h.cells = cells.size();
  bool rated = false;
  for (const ExactCell& c : cells) {
    if (!cell_sound(c)) h.sound = false;
    if (c.certified)
      ++h.exact_cells;
    else
      ++h.bounded_cells;
    const double r = c.greedy_ratio();
    if (!std::isnan(r)) {
      h.worst_greedy_ratio = std::min(h.worst_greedy_ratio, r);
      rated = true;
    }
  }
  if (!rated) h.worst_greedy_ratio = 0.0;
  return h;
}

/// --check oracle leg: B&B vs brute force on an oracle-reachable fat tree.
int check_oracle(std::uint64_t seed) {
  namespace sel = netsel::select;
  auto ft = netsel::topo::fat_tree_for_hosts(24, 6, 2.0, seed);
  ft.cpu_jitter = 0.3;
  auto g = netsel::topo::fat_tree(ft);
  netsel::remos::NetworkSnapshot snap(g);
  netsel::remos::apply_synthetic_load(snap, seed * 31 + 7);
  sel::SelectionContext ctx(snap);
  sel::BnbBudget to_proof;
  to_proof.node_budget = 0;
  int rc = 0;
  for (int m : {2, 4}) {
    sel::SelectionOptions opt;
    opt.num_nodes = m;
    for (sel::Criterion c :
         {sel::Criterion::MaxCompute, sel::Criterion::MaxBandwidth,
          sel::Criterion::Balanced}) {
      const auto bf = sel::brute_force_select(ctx, opt, c);
      const auto r = sel::branch_and_bound_select(ctx, opt, c, to_proof);
      if (!r.certified || r.feasible != bf.feasible ||
          r.nodes != bf.nodes || r.objective != bf.objective) {
        std::fprintf(stderr,
                     "FAIL: oracle mismatch m=%d %s (certified=%d)\n", m,
                     sel::criterion_name(c), r.certified ? 1 : 0);
        rc = 1;
      }
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  ExactGridOptions opt;
  bool csv = false;
  bool check = false;
  const char* metrics_path = nullptr;
  const char* trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--no-constraints") == 0) {
      opt.constraint_cells = false;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opt.seed = static_cast<std::uint64_t>(
          std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--hosts") == 0 && i + 1 < argc) {
      opt.hosts = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      opt.node_budget = static_cast<std::uint64_t>(
          std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (opt.hosts < 24 || opt.hosts % 12 != 0) {
    std::fprintf(stderr, "--hosts must be >= 24 and divisible by 12\n");
    return 2;
  }
  if (metrics_path || trace_path) netsel::obs::set_enabled(true);

  if (check) {
    // Reduced grid: small instances, shallow m, tight budget — seconds,
    // not minutes, in a sanitizer build.
    opt.hosts = 24;
    opt.ms = {2, 4};
    opt.node_budget = 5000;
  }
  opt.verbose = true;

  std::vector<netsel::exp::ExactCell> cells;
  {
    netsel::obs::Span span("exact.grid", "bench");
    cells = netsel::exp::run_exact_grid(opt);
  }
  const Headline h = summarize(cells);
  std::printf("%s", netsel::exp::format_exact_grid(cells, opt).c_str());
  std::printf("cells=%zu exact=%zu bounded=%zu sound=%s worst_ratio=%.4f\n",
              h.cells, h.exact_cells, h.bounded_cells,
              h.sound ? "true" : "false", h.worst_greedy_ratio);
  if (csv) std::printf("%s", netsel::exp::exact_grid_csv(cells, opt).c_str());

  int rc = 0;
  if (!netsel::bench::write_obs_exports(metrics_path, trace_path)) rc = 1;

  if (check) {
    if (!h.sound) {
      std::fprintf(stderr, "FAIL: unsound cell in the reduced grid\n");
      rc = 1;
    }
    if (h.exact_cells == 0) {
      std::fprintf(stderr, "FAIL: no cell certified in the reduced grid\n");
      rc = 1;
    }
    rc |= check_oracle(opt.seed);
    std::fprintf(stderr, rc == 0 ? "check OK\n" : "check FAILED\n");
  }
  return rc;
}
