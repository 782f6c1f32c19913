// Measurement-fault sweep: execution time of the Table-1 FFT workload
// under load + traffic when the Remos measurement plane itself degrades —
// dropped sweeps, per-sensor outages, measurement noise and late sweeps at
// increasing severity — with automatically vs randomly selected nodes.
// Auto policies select through NodeSelectionService, so the degradation
// ladder (full -> smoothed -> prior) is exercised and counted per cell.
//
// Usage: bench_faults [trials] [seed] [--csv] [--threads N] [--check]
//                     [--metrics-json PATH] [--chrome-trace PATH]
// Defaults: 12 trials, seed 2031, serial execution.
//   --threads N  run the grid on an N-worker pool (N < 0: one worker per
//                hardware thread); statistics are bit-identical for any N.
//   --check      verify the no-fault contract and exit non-zero on
//                violation: at severity 0 no auto trial may leave the Full
//                rung (the ladder returns the measured snapshot itself),
//                and no cell may have lost trials to a thrown selection.
//                Used as the CI smoke step.
//   --csv        append the machine-readable grid after the table.
//   --metrics-json P  enable the obs registry and write its JSON document
//                     (schema netsel-metrics-v1) to P after the run — the
//                     fault sweep populates the remos.* fault counters and
//                     the degraded api.degradation rungs the Table-1 grid
//                     never reaches.
//   --chrome-trace P  enable the obs registry and write the recorded spans
//                     as Chrome trace_event JSON to P (load in Perfetto).

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "api/service.hpp"
#include "exp/faults.hpp"
#include "obs/metrics.hpp"
#include "obs_exports.hpp"

int main(int argc, char** argv) {
  using namespace netsel::exp;

  FaultGridOptions opt;
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
      opt.threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (positional == 0) {
      opt.trials = std::atoi(argv[i]);
      ++positional;
    } else {
      opt.seed = static_cast<std::uint64_t>(std::strtoull(argv[i], nullptr, 10));
      ++positional;
    }
  }
  if (opt.trials < 1) {
    std::fprintf(stderr, "trials must be >= 1\n");
    return 1;
  }
  opt.verbose = true;
  if (metrics_path || trace_path) netsel::obs::set_enabled(true);

  auto rows = run_fault_grid(opt);
  std::printf("%s\n", format_fault_grid(rows, opt).c_str());
  if (csv) std::printf("%s", fault_grid_csv(rows, opt).c_str());
  netsel::api::register_service_metrics();
  if (!netsel::bench::write_obs_exports(metrics_path, trace_path)) return 1;

  if (check) {
    // No-fault contract: at severity 0 every sensor is fresh, so every
    // auto trial must have selected on the Full rung, and no selection may
    // have thrown anywhere in the grid.
    int rc = 0;
    for (const FaultRow& row : rows) {
      if (row.severity != 0.0) continue;
      for (std::size_t k = 0; k < row.autos.size(); ++k) {
        const CellResult& c = row.autos[k];
        if (c.degraded_smoothed + c.degraded_prior > 0) {
          std::fprintf(stderr,
                       "CHECK FAILED: severity 0 %s: %d smoothed, %d prior "
                       "trials\n",
                       policy_name(opt.criteria[k]), c.degraded_smoothed,
                       c.degraded_prior);
          rc = 2;
        }
      }
    }
    for (const FaultRow& row : rows) {
      auto cell_ok = [&](const CellResult& c, const char* what) {
        // Trials may legitimately fail (max_sim_time pathology) but a
        // selection that *throws* on missing measurements is a bug; those
        // failure notes name the selection stage.
        for (const std::string& note : c.failure_notes) {
          if (note.find("infeasible") != std::string::npos) {
            std::fprintf(stderr,
                         "CHECK FAILED: severity %.2f %s: selection failed "
                         "under faults: %s\n",
                         row.severity, what, note.c_str());
            rc = 2;
          }
        }
      };
      cell_ok(row.random, "random");
      for (const CellResult& c : row.autos) cell_ok(c, "auto");
    }
    std::fprintf(stderr, rc == 0 ? "check: OK\n" : "check: FAILED\n");
    return rc;
  }
  return 0;
}
