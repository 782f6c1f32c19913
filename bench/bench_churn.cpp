// Churn: incremental delta consumption vs. full epoch invalidation, and the
// bounded-migration reselect trade-off, on the 10,000-host fat-tree.
//
// Phase 1 (warm vs cold): a seeded stream of single-sensor deltas
// (link-bandwidth, then node-load) is applied to a snapshot watched by one
// long-lived SelectionContext. After every delta the placement is
// re-evaluated twice: on the warm context (fine-grained invalidation: the
// delta journal is consumed, affected rows repaired in place) and on a
// fresh context (the old behaviour — an opaque epoch bump made every cached
// structure cold). Both evaluations and the deletion orders must be
// bit-identical; the ratio of their mean costs is the headline.
//
// Phase 2 (budget curves): per migration budget, the same delta stream is
// replayed against a private snapshot while api::reselect() keeps a 16-node
// placement alive. With one reselection every 30 simulated seconds, the
// curve reports migrations-per-hour against placement quality (the
// criterion score relative to the unconstrained reselection).
//
// Headline contract (the exit status): >= 10x warm-path speedup for
// single-link bandwidth deltas vs. full epoch invalidation on the
// 10,000-host fat-tree.
//
// Usage: bench_churn [reps] [seed] [--csv] [--check] [--threads N]
//                    [--metrics-json PATH] [--chrome-trace PATH]
// Defaults: 3 reps (the delta stream is 20*reps deltas long), seed 4242.
//   --check          CI smoke: a small fat-tree, a mixed delta stream with
//                    structural mutations, asserting the warm context stays
//                    bit-identical to a rebuilt one and that reselect
//                    honours its budget. Exits 2 on any mismatch.
//   --csv            append the machine-readable records after the tables.
//   --metrics-json P enable the obs registry and write its JSON document to
//                    P after the run.
//   --chrome-trace P enable the obs registry and write recorded spans as
//                    Chrome trace_event JSON to P.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/reselect.hpp"
#include "api/service.hpp"
#include "obs/metrics.hpp"
#include "obs_exports.hpp"
#include "remos/snapshot.hpp"
#include "select/algorithms.hpp"
#include "select/context.hpp"
#include "select/objective.hpp"
#include "topo/synthetic.hpp"
#include "util/rng.hpp"

namespace {

using namespace netsel;
using Clock = std::chrono::steady_clock;

/// Reselection cadence assumed when converting a step count to wall time.
constexpr double kStepSeconds = 30.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<topo::LinkId> usable_links(const topo::TopologyGraph& g) {
  std::vector<topo::LinkId> out;
  for (std::size_t l = 0; l < g.link_count(); ++l)
    if (!g.link_removed(static_cast<topo::LinkId>(l)))
      out.push_back(static_cast<topo::LinkId>(l));
  return out;
}

std::vector<topo::NodeId> compute_hosts(const topo::TopologyGraph& g) {
  std::vector<topo::NodeId> out;
  for (std::size_t i = 0; i < g.node_count(); ++i)
    if (g.is_compute(static_cast<topo::NodeId>(i)))
      out.push_back(static_cast<topo::NodeId>(i));
  return out;
}

bool same_evaluation(const select::SetEvaluation& a,
                     const select::SetEvaluation& b) {
  return a.connected == b.connected && a.min_cpu == b.min_cpu &&
         a.min_pair_bw == b.min_pair_bw &&
         a.min_pair_bw_fraction == b.min_pair_bw_fraction &&
         a.balanced == b.balanced && a.max_pair_latency == b.max_pair_latency;
}

// ---------------------------------------------------------------------------
// Phase 1: warm vs cold per-delta cost
// ---------------------------------------------------------------------------

enum class DeltaClass { LinkBandwidth, NodeLoad };

struct PhaseResult {
  int deltas = 0;
  double warm_mean_seconds = 0.0;
  double cold_mean_seconds = 0.0;
  bool identical = true;
  double speedup() const {
    return warm_mean_seconds > 0.0 ? cold_mean_seconds / warm_mean_seconds
                                   : 0.0;
  }
};

/// Apply `count` single-sensor deltas of one class; after each, time the
/// placement re-evaluation (deletion-order touch + evaluate_set) on the
/// long-lived context vs. a fresh one, asserting bit-identical results.
PhaseResult run_delta_phase(remos::NetworkSnapshot& snap,
                            const select::SelectionContext& warm,
                            const std::vector<topo::NodeId>& placement,
                            const select::SelectionOptions& opt,
                            DeltaClass cls, util::Rng& rng, int count) {
  obs::Span span("churn.phase", "bench");
  span.arg("class",
           cls == DeltaClass::LinkBandwidth ? "link_bw" : "node_load");
  const auto links = usable_links(snap.graph());
  const auto hosts = compute_hosts(snap.graph());
  PhaseResult out;
  out.deltas = count;
  double warm_total = 0.0, cold_total = 0.0;
  for (int i = 0; i < count; ++i) {
    if (cls == DeltaClass::LinkBandwidth) {
      const auto l = links[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(links.size()) - 1))];
      snap.set_bw(l, rng.uniform(0.05, 1.0) * snap.maxbw(l));
    } else {
      const auto n = hosts[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(hosts.size()) - 1))];
      snap.set_loadavg(n, rng.uniform(0.0, 4.0));
    }
    select::SetEvaluation warm_ev, cold_ev;
    std::size_t warm_orders = 0, cold_orders = 0;
    {
      auto t0 = Clock::now();
      warm_orders = warm.links_by_bw().size();
      warm_ev = evaluate_set(warm, placement, opt);
      warm_total += seconds_since(t0);
    }
    {
      // The pre-delta behaviour: an epoch bump invalidated everything, so
      // the next query paid a full rebuild of orders and pair rows.
      auto t0 = Clock::now();
      select::SelectionContext cold(snap);
      cold_orders = cold.links_by_bw().size();
      cold_ev = evaluate_set(cold, placement, opt);
      cold_total += seconds_since(t0);
    }
    if (!same_evaluation(warm_ev, cold_ev) || warm_orders != cold_orders)
      out.identical = false;
  }
  out.warm_mean_seconds = warm_total / count;
  out.cold_mean_seconds = cold_total / count;
  return out;
}

// ---------------------------------------------------------------------------
// Phase 2: placement quality vs migrations per hour
// ---------------------------------------------------------------------------

struct BudgetPoint {
  int budget = 0;  // -1 = unbounded
  int steps = 0;
  long migrations = 0;
  double migrations_per_hour = 0.0;
  /// Mean of objective_after / objective_unbounded over the stream.
  double mean_quality = 0.0;
  double mean_objective = 0.0;
  double reselect_seconds = 0.0;
};

BudgetPoint run_budget_curve(const topo::TopologyGraph& g, std::uint64_t seed,
                             int budget, int steps, int deltas_per_step,
                             int m) {
  obs::Span span("churn.budget", "bench");
  span.arg("budget", std::to_string(budget));
  // A private snapshot so every budget replays the identical delta stream
  // from the identical starting state.
  remos::NetworkSnapshot snap(g);
  remos::apply_synthetic_load(snap, seed + 7);
  select::SelectionContext ctx(snap);
  select::SelectionOptions sopt;
  sopt.num_nodes = m;
  auto init = select::select_nodes(select::Criterion::Balanced, ctx, sopt);
  if (!init.feasible) {
    std::fprintf(stderr, "initial placement infeasible\n");
    std::abort();
  }
  std::vector<topo::NodeId> placement = init.nodes;
  std::sort(placement.begin(), placement.end());

  // A uniform stream over ~11k links would almost never touch the 16 chosen
  // hosts; real churn concentrates where the traffic is. Bias the stream
  // toward the *initial* placement's access links and the shared switch
  // trunks (the initial placement is identical for every budget, so every
  // budget replays the identical stream).
  const auto links = usable_links(g);
  std::vector<topo::LinkId> hot;
  for (topo::NodeId n : placement) {
    const auto incident = g.links_of(n);
    hot.insert(hot.end(), incident.begin(), incident.end());
  }
  std::vector<topo::LinkId> trunks;
  for (topo::LinkId l : links)
    if (!g.is_compute(g.link(l).a) && !g.is_compute(g.link(l).b))
      trunks.push_back(l);
  util::Rng rng(seed ^ 0xC0FFEEull);
  auto pick = [&](const std::vector<topo::LinkId>& pool) {
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };
  BudgetPoint out;
  out.budget = budget;
  out.steps = steps;
  for (int step = 0; step < steps; ++step) {
    for (int d = 0; d < deltas_per_step; ++d) {
      const double roll = rng.uniform(0.0, 1.0);
      const topo::LinkId l = roll < 0.4 && !hot.empty()   ? pick(hot)
                             : roll < 0.7 && !trunks.empty() ? pick(trunks)
                                                             : pick(links);
      snap.set_bw(l, rng.uniform(0.02, 1.0) * snap.maxbw(l));
    }
    api::ReselectOptions ropt;
    ropt.max_migrations = budget;
    ropt.criterion = select::Criterion::Balanced;
    auto t0 = Clock::now();
    auto res = api::reselect(ctx, placement, ropt);
    out.reselect_seconds += seconds_since(t0);
    if (!res.feasible) continue;
    placement = res.nodes;
    out.migrations += res.migrations;
    out.mean_quality += res.objective_unbounded > 0.0
                            ? res.objective_after / res.objective_unbounded
                            : 1.0;
    out.mean_objective += res.objective_after;
  }
  out.mean_quality /= steps;
  out.mean_objective /= steps;
  out.migrations_per_hour =
      static_cast<double>(out.migrations) / (steps * kStepSeconds / 3600.0);
  return out;
}

// ---------------------------------------------------------------------------
// --check: correctness smoke on a small fabric, structural deltas included
// ---------------------------------------------------------------------------

int run_check(std::uint64_t seed, int m) {
  int rc = 0;
  auto g = topo::fat_tree(topo::fat_tree_for_hosts(128, 16, 2.0, seed));
  remos::NetworkSnapshot snap(g);
  remos::apply_synthetic_load(snap, seed + 7);
  select::SelectionContext warm(snap);
  select::SelectionOptions opt;
  opt.num_nodes = m;
  auto placement = select::select_nodes(select::Criterion::Balanced, warm, opt)
                       .nodes;
  if (placement.empty()) {
    std::fprintf(stderr, "CHECK FAILED: initial selection infeasible\n");
    return 2;
  }
  util::Rng rng(seed + 11);
  int names = 0;
  for (int step = 0; step < 60; ++step) {
    // A mixed stream: mostly sensor deltas, some structural churn.
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.55) {
      const auto links = usable_links(g);
      const auto l = links[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(links.size()) - 1))];
      snap.set_bw(l, rng.uniform(0.05, 1.0) * snap.maxbw(l));
    } else if (roll < 0.75) {
      const auto hosts = compute_hosts(g);
      snap.set_loadavg(hosts[static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(hosts.size()) - 1))],
                       rng.uniform(0.0, 4.0));
    } else if (roll < 0.85) {
      const auto links = usable_links(g);
      if (links.size() > 32) {
        const auto l = links[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(links.size()) - 1))];
        g.remove_link(l);
        snap.notify_link_removed(l);
      }
    } else if (roll < 0.95) {
      const auto hosts = compute_hosts(g);
      const auto a = hosts[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(hosts.size()) - 1))];
      const auto b = hosts[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(hosts.size()) - 1))];
      if (a != b) {
        const auto id = g.add_link(a, b, 50.0 * topo::kMbps);
        snap.notify_link_added(id);
      }
    } else {
      const auto id = g.add_compute("churn" + std::to_string(names++));
      snap.notify_node_added(id);
    }

    select::SelectionContext fresh(snap);
    if (warm.links_by_bw() != fresh.links_by_bw()) {
      std::fprintf(stderr,
                   "CHECK FAILED: step %d: warm orders diverge from rebuild\n",
                   step);
      rc = 2;
      break;
    }
    auto a = select::select_nodes(select::Criterion::Balanced, warm, opt);
    auto b = select::select_nodes(select::Criterion::Balanced, fresh, opt);
    if (a.feasible != b.feasible || a.nodes != b.nodes ||
        a.objective != b.objective) {
      std::fprintf(
          stderr,
          "CHECK FAILED: step %d: warm selection diverges from rebuild\n",
          step);
      rc = 2;
      break;
    }
    if (a.feasible && !same_evaluation(evaluate_set(warm, a.nodes, opt),
                                       evaluate_set(fresh, a.nodes, opt))) {
      std::fprintf(
          stderr,
          "CHECK FAILED: step %d: warm evaluation diverges from rebuild\n",
          step);
      rc = 2;
      break;
    }
  }

  // Reselect must honour its budget (forced replacements aside — the stream
  // above never tombstones placement hosts' access links and selections stay
  // feasible, so none occur here).
  if (rc == 0) {
    select::SelectionContext ctx(snap);
    auto cur = select::select_nodes(select::Criterion::Balanced, ctx, opt);
    const auto hosts = compute_hosts(g);
    std::vector<topo::NodeId> bad(hosts.end() - m, hosts.end());
    for (int budget : {0, 1, 4}) {
      api::ReselectOptions ropt;
      ropt.max_migrations = budget;
      auto res = api::reselect(ctx, bad, ropt);
      if (!res.feasible || res.migrations > budget ||
          res.objective_after + 1e-15 < res.objective_before) {
        std::fprintf(stderr,
                     "CHECK FAILED: reselect budget %d: migrations %d, "
                     "objective %.6g -> %.6g\n",
                     budget, res.migrations, res.objective_before,
                     res.objective_after);
        rc = 2;
      }
    }
    if (cur.feasible) {
      api::ReselectOptions ropt;  // unbounded adopts the optimum
      auto res = api::reselect(ctx, bad, ropt);
      auto sorted = cur.nodes;
      std::sort(sorted.begin(), sorted.end());
      if (!res.feasible || res.nodes != sorted) {
        std::fprintf(stderr,
                     "CHECK FAILED: unbounded reselect != fresh selection\n");
        rc = 2;
      }
    }
  }
  std::fprintf(stderr, rc == 0 ? "check: OK\n" : "check: FAILED\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  std::uint64_t seed = 4242;
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
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      ++i;  // accepted for flag-compatibility; this benchmark is serial
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
  const int m = 16;
  if (check) return run_check(seed, m);
  if (metrics_path || trace_path) obs::set_enabled(true);

  std::fprintf(stderr, "bench_churn: generating 10k-host fat-tree (seed "
                       "%llu)...\n",
               static_cast<unsigned long long>(seed));
  auto g = topo::fat_tree(topo::fat_tree_for_hosts(10000, 48, 3.0, seed));
  const int hosts = static_cast<int>(compute_hosts(g).size());
  remos::NetworkSnapshot snap(g);
  remos::apply_synthetic_load(snap, seed + 7);
  select::SelectionContext warm(snap);
  select::SelectionOptions opt;
  opt.num_nodes = m;
  auto init = select::select_nodes(select::Criterion::Balanced, warm, opt);
  if (!init.feasible) {
    std::fprintf(stderr, "initial placement infeasible\n");
    return 1;
  }
  std::vector<topo::NodeId> placement = init.nodes;
  std::sort(placement.begin(), placement.end());

  const int stream = 20 * reps;
  util::Rng rng(seed + 101);
  auto bw_phase = run_delta_phase(snap, warm, placement, opt,
                                  DeltaClass::LinkBandwidth, rng, stream);
  auto load_phase = run_delta_phase(snap, warm, placement, opt,
                                    DeltaClass::NodeLoad, rng, stream);

  std::printf(
      "== Churn on a %zu-node / %d-host fat-tree, m=%d, seed %llu ==\n"
      "   warm = long-lived context consuming the delta journal;\n"
      "   cold = fresh context per delta (full epoch invalidation)\n\n"
      "%-22s %7s %12s %12s %9s %6s\n",
      g.node_count(), hosts, m, static_cast<unsigned long long>(seed),
      "delta class", "deltas", "warm_us", "cold_us", "speedup", "same");
  auto print_phase = [&](const char* name, const PhaseResult& p) {
    std::printf("%-22s %7d %12.1f %12.1f %8.1fx %6s\n", name, p.deltas,
                p.warm_mean_seconds * 1e6, p.cold_mean_seconds * 1e6,
                p.speedup(), p.identical ? "yes" : "NO");
  };
  print_phase("link_bandwidth", bw_phase);
  print_phase("node_load", load_phase);
  std::printf(
      "\nheadline: warm/cold speedup for single-link bandwidth deltas "
      "%.1fx (target >= 10x): %s\n",
      bw_phase.speedup(), bw_phase.speedup() >= 10.0 ? "PASS" : "FAIL");

  // Phase 2: the budget curve, replayed per budget on private snapshots.
  const int steps = 8 * reps;
  const int deltas_per_step = 6;
  std::printf(
      "\n== reselect every %.0f simulated seconds, %d bandwidth deltas per "
      "step, %d steps ==\n"
      "%-10s %12s %16s %14s %14s\n",
      kStepSeconds, deltas_per_step, steps, "budget", "migrations",
      "migrations/hour", "mean_quality", "reselect_ms");
  std::vector<BudgetPoint> curve;
  for (int budget : {0, 1, 2, 4, 8, -1}) {
    curve.push_back(
        run_budget_curve(g, seed, budget, steps, deltas_per_step, m));
    const BudgetPoint& p = curve.back();
    char label[16];
    if (budget < 0)
      std::snprintf(label, sizeof label, "unbounded");
    else
      std::snprintf(label, sizeof label, "%d", budget);
    std::printf("%-10s %12ld %16.1f %14.4f %14.2f\n", label, p.migrations,
                p.migrations_per_hour, p.mean_quality,
                p.reselect_seconds * 1e3);
  }

  if (csv) {
    std::printf("\n-- csv --\nclass,deltas,warm_s,cold_s,speedup,identical\n");
    std::printf("link_bandwidth,%d,%.7f,%.7f,%.2f,%d\n", bw_phase.deltas,
                bw_phase.warm_mean_seconds, bw_phase.cold_mean_seconds,
                bw_phase.speedup(), bw_phase.identical ? 1 : 0);
    std::printf("node_load,%d,%.7f,%.7f,%.2f,%d\n", load_phase.deltas,
                load_phase.warm_mean_seconds, load_phase.cold_mean_seconds,
                load_phase.speedup(), load_phase.identical ? 1 : 0);
    std::printf("budget,steps,migrations,migrations_per_hour,mean_quality,"
                "mean_objective\n");
    for (const BudgetPoint& p : curve)
      std::printf("%d,%d,%ld,%.1f,%.4f,%.6f\n", p.budget, p.steps,
                  p.migrations, p.migrations_per_hour, p.mean_quality,
                  p.mean_objective);
  }
  api::register_service_metrics();
  if (!bench::write_obs_exports(metrics_path, trace_path)) return 1;
  if (!bw_phase.identical || !load_phase.identical) return 2;
  return bw_phase.speedup() >= 10.0 ? 0 : 2;
}
