#pragma once
// Table 1 of the paper, as data, plus the full reproduction pipeline:
// run every cell (3 applications x {load, traffic, load+traffic} x
// {random, automatic} + unloaded reference) and format the result next to
// the paper's numbers.

#include <array>
#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace netsel::exp {

/// Condition index within a Table-1 row. kReference is not a measured
/// condition — it tags the unloaded-reference trial for seed derivation.
enum : int { kLoadOnly = 0, kTrafficOnly = 1, kLoadAndTraffic = 2, kReference = 3 };

/// The paper's measured values (seconds).
struct PaperRow {
  const char* app;
  int nodes;
  std::array<double, 3> random_sel;  ///< load, traffic, load+traffic
  std::array<double, 3> auto_sel;
  double reference;  ///< unloaded testbed
};

inline constexpr std::array<PaperRow, 3> kPaperTable1{{
    {"FFT (1K)", 4, {112.6, 80.3, 142.6}, {82.6, 64.6, 118.5}, 48.0},
    {"Airshed", 5, {393.8, 281.3, 530.2}, {254.0, 188.5, 355.1}, 150.0},
    {"MRI", 4, {683.0, 591.0, 776.0}, {594.0, 571.0, 667.0}, 540.0},
}};

struct MeasuredRow {
  std::string app;
  int nodes = 0;
  std::array<CellResult, 3> random_sel;  ///< load, traffic, load+traffic
  std::array<CellResult, 3> auto_sel;
  double reference = 0.0;
};

struct Table1Options {
  int trials = 15;
  std::uint64_t seed = 1999;
  /// Worker threads for the grid: 0 runs everything serially on the calling
  /// thread, < 0 uses one worker per hardware thread, > 0 that many workers.
  /// The statistics are bit-identical for every setting (see run_cells).
  int threads = 0;
  /// Print one progress line per cell to stderr.
  bool verbose = false;
};

/// Run the whole Table-1 experiment grid: its 18 cells go to run_cells as
/// one list, and each row's unloaded reference is one run_trial on the
/// calling thread. The output is bit-identical for every thread count.
std::vector<MeasuredRow> run_table1(const Table1Options& opt = {});

/// Paper-style table: measured values with % change vs random, paper values
/// alongside.
std::string format_table1(const std::vector<MeasuredRow>& rows);

/// The paper's headline analysis: "the increase in execution time due to
/// traffic and/or load is approximately cut in half with automatic node
/// selection" — computed for the measured rows and for the paper's rows.
std::string format_slowdown_summary(const std::vector<MeasuredRow>& rows);

}  // namespace netsel::exp
