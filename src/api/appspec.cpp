#include "api/appspec.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace netsel::api {

namespace {
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}
}  // namespace

const char* degradation_level_name(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::Full: return "full";
    case DegradationLevel::Smoothed: return "smoothed";
    case DegradationLevel::Prior: return "prior";
  }
  return "?";
}

int AppSpec::total_nodes() const {
  int t = 0;
  for (const auto& g : groups) t += g.count;
  return t;
}

AppSpec AppSpec::spmd(std::string name, int nodes, AppPattern pattern) {
  AppSpec spec;
  spec.name = std::move(name);
  spec.pattern = pattern;
  NodeGroup g;
  g.name = "workers";
  g.count = nodes;
  spec.groups.push_back(std::move(g));
  return spec;
}

void AppSpec::validate() const {
  if (groups.empty())
    throw std::invalid_argument("AppSpec: at least one node group required");
  for (const auto& g : groups) {
    if (g.count < 1)
      throw std::invalid_argument("AppSpec: group '" + g.name +
                                  "' must request >= 1 node");
  }
  if (cpu_priority <= 0.0 || bw_priority <= 0.0)
    throw std::invalid_argument("AppSpec: priorities must be > 0");
  if (min_bw_bps < 0.0 || min_cpu_fraction < 0.0 ||
      min_free_memory_bytes < 0.0)
    throw std::invalid_argument("AppSpec: requirements must be >= 0");
}

std::vector<topo::NodeId> Placement::flat() const {
  std::vector<topo::NodeId> out;
  for (const auto& g : group_nodes) out.insert(out.end(), g.begin(), g.end());
  return out;
}

std::string explain_report(const Placement& p, const topo::TopologyGraph& g) {
  std::ostringstream os;
  os << "placement '" << (p.app.empty() ? "app" : p.app) << "' ("
     << (p.criterion.empty() ? "?" : p.criterion) << "): "
     << (p.feasible ? "feasible" : "infeasible");
  if (!p.feasible && !p.note.empty()) os << " -- " << p.note;
  os << "\n";
  os << "  measurements: " << degradation_level_name(p.degradation)
     << " (coverage " << fmt(p.measurement_coverage) << ")";
  if (!p.degradation_reason.empty()) os << " -- " << p.degradation_reason;
  os << "\n";
  for (const auto& gi : p.groups) {
    os << "  group '" << gi.group << "': ";
    if (gi.nodes.empty()) {
      os << "no nodes";
      if (!gi.note.empty()) os << " -- " << gi.note;
      os << "\n";
      continue;
    }
    for (std::size_t i = 0; i < gi.nodes.size(); ++i) {
      if (i) os << ", ";
      os << g.node_name(gi.nodes[i]);
    }
    os << " (" << gi.nodes.size() << " of " << gi.candidates
       << " candidates)\n";
    // The balanced objective is min(cpu/kc, bw_fraction/kb): whichever term
    // is smaller is the one the application is actually limited by.
    double cpu_term = gi.min_cpu / p.cpu_priority;
    double bw_term = gi.min_bw_fraction / p.bw_priority;
    bool cpu_binding = cpu_term <= bw_term;
    os << "    min cpu " << fmt(gi.min_cpu) << " (/" << fmt(p.cpu_priority)
       << " = " << fmt(cpu_term) << (cpu_binding ? " [binding]" : "")
       << "), min bw fraction " << fmt(gi.min_bw_fraction) << " (/"
       << fmt(p.bw_priority) << " = " << fmt(bw_term)
       << (cpu_binding ? "" : " [binding]") << "), min pair bw "
       << fmt(gi.min_pair_bw) << " bps, objective " << fmt(gi.objective)
       << "\n";
    if (!gi.note.empty()) os << "    note: " << gi.note << "\n";
  }
  return os.str();
}

}  // namespace netsel::api
