#include "select/options.hpp"

#include <cmath>
#include <stdexcept>

namespace netsel::select {

const char* criterion_name(Criterion c) {
  switch (c) {
    case Criterion::MaxCompute: return "max-compute";
    case Criterion::MaxBandwidth: return "max-bandwidth";
    case Criterion::Balanced: return "balanced";
  }
  return "?";
}

double link_fraction(const remos::NetworkSnapshot& snap, topo::LinkId l,
                     const SelectionOptions& opt) {
  if (opt.reference_bw > 0.0) return snap.bw_reference(l, opt.reference_bw);
  return snap.bwfactor(l);
}

double node_cpu(const remos::NetworkSnapshot& snap, topo::NodeId n,
                const SelectionOptions& opt) {
  return snap.cpu_reference(n, opt.reference_cpu_capacity);
}

bool node_eligible(const remos::NetworkSnapshot& snap, topo::NodeId n,
                   const SelectionOptions& opt) {
  if (!snap.graph().is_compute(n)) return false;
  if (!opt.eligible.empty() && !opt.eligible[static_cast<std::size_t>(n)])
    return false;
  if (opt.min_cpu_fraction > 0.0 &&
      node_cpu(snap, n, opt) < opt.min_cpu_fraction)
    return false;
  if (opt.min_free_memory_bytes > 0.0 &&
      snap.free_memory(n) < opt.min_free_memory_bytes)
    return false;
  return true;
}

std::vector<char> initial_link_mask(const remos::NetworkSnapshot& snap,
                                    const SelectionOptions& opt) {
  const auto& g = snap.graph();
  std::vector<char> mask(g.link_count(), 1);
  for (std::size_t l = 0; l < mask.size(); ++l) {
    if (g.link_removed(static_cast<topo::LinkId>(l)))
      mask[l] = 0;  // tombstoned links are never usable
    else if (opt.min_bw_bps > 0.0 &&
             snap.bw(static_cast<topo::LinkId>(l)) < opt.min_bw_bps)
      mask[l] = 0;
  }
  return mask;
}

void validate_options(const remos::NetworkSnapshot& snap,
                      const SelectionOptions& opt) {
  if (opt.num_nodes < 1)
    throw std::invalid_argument("selection: num_nodes must be >= 1");
  // NaN fails every comparison, so each check tests finiteness first:
  // otherwise a NaN priority passes and makes every selection infeasible,
  // and a NaN requirement passes and is silently ignored.
  if (!std::isfinite(opt.cpu_priority) || opt.cpu_priority <= 0.0 ||
      !std::isfinite(opt.bw_priority) || opt.bw_priority <= 0.0)
    throw std::invalid_argument("selection: priorities must be finite and > 0");
  if (!std::isfinite(opt.reference_cpu_capacity) ||
      opt.reference_cpu_capacity <= 0.0)
    throw std::invalid_argument(
        "selection: reference cpu capacity must be finite and > 0");
  if (!std::isfinite(opt.reference_bw) || opt.reference_bw < 0.0)
    throw std::invalid_argument(
        "selection: reference_bw must be finite and >= 0");
  for (const double req :
       {opt.min_bw_bps, opt.min_cpu_fraction, opt.min_free_memory_bytes})
    if (!std::isfinite(req) || req < 0.0)
      throw std::invalid_argument(
          "selection: requirements must be finite and >= 0");
  if (!opt.eligible.empty() && opt.eligible.size() != snap.graph().node_count())
    throw std::invalid_argument("selection: eligibility mask size mismatch");
}

}  // namespace netsel::select
