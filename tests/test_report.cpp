#include "exp/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace netsel::exp {
namespace {

TEST(CsvEscape, PassesPlainFields) {
  EXPECT_EQ(csv_escape("FFT"), "FFT");
  EXPECT_EQ(csv_escape("m-1+m-2"), "m-1+m-2");
}

TEST(CsvEscape, QuotesSpecials) {
  EXPECT_EQ(csv_escape("FFT (1K), big"), "\"FFT (1K), big\"");
  EXPECT_EQ(csv_escape("he said \"hi\""), "\"he said \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
}

TEST(Table1Csv, ShapeAndContent) {
  MeasuredRow row;
  row.app = "FFT, transposed";  // comma forces quoting
  row.nodes = 4;
  row.reference = 48.0;
  for (int c = 0; c < 3; ++c) {
    auto cs = static_cast<std::size_t>(c);
    for (int t = 0; t < 25; ++t) {
      row.random_sel[cs].stats.add(100.0 + c);
      row.auto_sel[cs].stats.add(80.0 + c);
    }
  }
  auto csv = table1_csv({row});
  // Header + 3 conditions x 2 policies.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 7);
  EXPECT_NE(csv.find("app,nodes,condition,policy"), std::string::npos);
  EXPECT_NE(csv.find("\"FFT, transposed\""), std::string::npos);
  EXPECT_NE(csv.find(",load,random,100,0,25,"), std::string::npos);
  EXPECT_NE(csv.find(",traffic,auto,81,0,25,"), std::string::npos);
}

TEST(Table1Csv, PaperValuesAlongside) {
  MeasuredRow row;
  row.app = "FFT (1K)";
  row.nodes = 4;
  row.reference = 48.0;
  auto csv = table1_csv({row});
  // Paper's FFT load+traffic value 142.6 appears in the random row.
  EXPECT_NE(csv.find("142.6"), std::string::npos);
  EXPECT_NE(csv.find("118.5"), std::string::npos);
}

TEST(TrialsCsv, PerTrialRows) {
  Scenario s = table1_scenario(true, false);
  auto csv = trials_csv(fft_case(), s, Policy::AutoBalanced, 3, 77);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);  // header + 3
  // Seeds in the rows are the hashed per-trial derivations, not seed0 + t.
  EXPECT_NE(csv.find("load,auto-balanced," + std::to_string(trial_seed(77, 0)) +
                     ","),
            std::string::npos);
  EXPECT_NE(csv.find("m-"), std::string::npos) << "node names listed";
  // Determinism: same seeds, same csv.
  EXPECT_EQ(csv, trials_csv(fft_case(), s, Policy::AutoBalanced, 3, 77));
}

TEST(TrialsCsv, ConditionNames) {
  auto idle = trials_csv(fft_case(), table1_scenario(false, false),
                         Policy::AutoBalanced, 1, 5);
  EXPECT_NE(idle.find(",idle,"), std::string::npos);
  auto both = trials_csv(fft_case(), table1_scenario(true, true),
                         Policy::Random, 1, 5);
  EXPECT_NE(both.find(",load+traffic,"), std::string::npos);
}

}  // namespace
}  // namespace netsel::exp
