// Reproduction of the paper's Table 1: execution time of FFT, Airshed and
// MRI on the simulated Fig. 4 testbed under processor load, network traffic
// and both, with randomly vs automatically selected nodes, plus the
// unloaded reference column — printed side by side with the paper's
// measurements, followed by the "slowdown roughly halved" analysis.
//
// Usage: bench_table1 [trials] [seed] [--csv] [--threads N]
//                     [--metrics-json PATH] [--chrome-trace PATH]
// Defaults: 25 trials, seed 1999, serial execution.
//   --threads N      run the grid on an N-worker pool (N < 0: one worker per
//                    hardware thread). Statistics are bit-identical to the
//                    serial run for every N (deterministic reduction; the
//                    ParallelExperiment gtests assert it).
//   --metrics-json P enable the obs registry and write its JSON document
//                    (schema netsel-metrics-v1) to P after the run.
//   --chrome-trace P enable the obs registry and write the recorded spans
//                    as Chrome trace_event JSON to P (load in Perfetto).
// With --csv, the machine-readable grid is appended after the tables.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "api/service.hpp"
#include "exp/report.hpp"
#include "exp/table1.hpp"
#include "obs/metrics.hpp"
#include "obs_exports.hpp"

int main(int argc, char** argv) {
  using namespace netsel::exp;
  Table1Options opt;
  opt.trials = 25;
  bool csv = false;
  const char* metrics_path = nullptr;
  const char* trace_path = nullptr;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      opt.threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      // A removed or misspelt flag must not be read as a positional.
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return 1;
    } else if (positional == 0) {
      opt.trials = std::atoi(argv[i]);
      ++positional;
    } else {
      opt.seed = static_cast<std::uint64_t>(std::atoll(argv[i]));
      ++positional;
    }
  }
  if (opt.trials < 1) {
    std::fprintf(stderr, "trials must be >= 1\n");
    return 1;
  }
  if (metrics_path || trace_path) netsel::obs::set_enabled(true);

  opt.verbose = true;
  std::printf(
      "== Table 1: performance with computation load and network traffic ==\n"
      "   (%d trials per cell, seed %llu, %s; paper values from PPoPP'99)\n\n",
      opt.trials, static_cast<unsigned long long>(opt.seed),
      opt.threads == 0 ? "serial" : "thread-pool");
  auto rows = run_table1(opt);
  std::fputs("\n", stdout);
  std::fputs(format_table1(rows).c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(format_slowdown_summary(rows).c_str(), stdout);
  if (csv) {
    std::fputs("\n-- csv --\n", stdout);
    std::fputs(table1_csv(rows).c_str(), stdout);
  }
  // The document always lists the degradation-ladder counters, even for
  // runs that never placed through the service.
  netsel::api::register_service_metrics();
  if (!netsel::bench::write_obs_exports(metrics_path, trace_path)) return 1;
  return 0;
}
