#include "exp/report.hpp"

#include <sstream>

#include "topo/generators.hpp"

namespace netsel::exp {

std::string csv_escape(const std::string& field) {
  bool needs_quotes = field.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string table1_csv(const std::vector<MeasuredRow>& rows) {
  std::ostringstream os;
  os << "app,nodes,condition,policy,mean_s,ci95_s,trials,paper_s,reference_s\n";
  const char* conds[3] = {"load", "traffic", "load+traffic"};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const MeasuredRow& m = rows[r];
    const PaperRow* p = r < kPaperTable1.size() ? &kPaperTable1[r] : nullptr;
    for (int c = 0; c < 3; ++c) {
      auto cs = static_cast<std::size_t>(c);
      os << csv_escape(m.app) << "," << m.nodes << "," << conds[c]
         << ",random," << m.random_sel[cs].mean() << ","
         << m.random_sel[cs].ci_halfwidth(0.95) << ","
         << m.random_sel[cs].count() << ","
         << (p ? p->random_sel[cs] : 0.0) << "," << m.reference << "\n";
      os << csv_escape(m.app) << "," << m.nodes << "," << conds[c] << ",auto,"
         << m.auto_sel[cs].mean() << "," << m.auto_sel[cs].ci_halfwidth(0.95)
         << "," << m.auto_sel[cs].count() << ","
         << (p ? p->auto_sel[cs] : 0.0) << "," << m.reference << "\n";
    }
  }
  return os.str();
}

std::string trials_csv(const AppCase& app, const Scenario& scenario,
                       Policy policy, int trials, std::uint64_t seed0) {
  std::ostringstream os;
  os << "app,condition,policy,seed,elapsed_s,nodes\n";
  std::string condition;
  if (scenario.load_on && scenario.traffic_on) {
    condition = "load+traffic";
  } else if (scenario.load_on) {
    condition = "load";
  } else if (scenario.traffic_on) {
    condition = "traffic";
  } else {
    condition = "idle";
  }
  topo::TopologyGraph names = topo::testbed();
  for (int t = 0; t < trials; ++t) {
    std::uint64_t seed = trial_seed(seed0, t);
    auto result = run_trial(app, scenario, policy, seed);
    std::string joined;
    for (std::size_t i = 0; i < result.nodes.size(); ++i) {
      if (i) joined += "+";
      joined += names.node_name(result.nodes[i]);
    }
    os << csv_escape(app.name) << "," << condition << ","
       << policy_name(policy) << "," << seed << "," << result.elapsed << ","
       << joined << "\n";
  }
  return os.str();
}

}  // namespace netsel::exp
