#pragma once
// Measurement-fault sweep: how does automatic selection hold up when the
// Remos measurement plane itself degrades? Sweeps fault severity x
// selection criterion against the random baseline on the Table-1 workload
// (load + traffic on the Fig. 4 testbed), Table-1-style: mean execution
// time per cell, slowdown ratio vs random, and how often the service's
// degradation ladder had to leave the Full level.
//
// Every cell is an exp::run_cell over the Table-1 scenario with
// Scenario::fault_severity set, so at severity 0 it is the no-fault
// measurement path itself.

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace netsel::exp {

/// One row of the sweep: a severity level, the random baseline and one
/// auto cell per criterion (parallel to FaultGridOptions::criteria).
struct FaultRow {
  double severity = 0.0;
  CellResult random;
  std::vector<CellResult> autos;
};

struct FaultGridOptions {
  int trials = 12;
  std::uint64_t seed = 2031;
  std::vector<double> severities = {0.0, 0.2, 0.4, 0.7};
  std::vector<Policy> criteria = {Policy::AutoBalanced, Policy::AutoCompute,
                                  Policy::AutoBandwidth};
  /// Worker threads; 0 serial, < 0 one per hardware thread. Statistics are
  /// bit-identical for every setting (the grid is one run_cells list, as in
  /// run_table1).
  int threads = 0;
  bool verbose = false;
  /// Application under test (FFT by default: the fastest Table-1 app).
  AppCase app = fft_case();
};

/// Run the severity x criterion grid under load + traffic.
std::vector<FaultRow> run_fault_grid(const FaultGridOptions& opt = {});

/// Render the sweep: per severity, random baseline and per-criterion mean,
/// auto/random ratio, failure and degradation counts.
std::string format_fault_grid(const std::vector<FaultRow>& rows,
                              const FaultGridOptions& opt);

/// Machine-readable grid (one line per cell).
std::string fault_grid_csv(const std::vector<FaultRow>& rows,
                           const FaultGridOptions& opt);

}  // namespace netsel::exp
