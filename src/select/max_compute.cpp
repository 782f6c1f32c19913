#include <limits>

#include "obs/metrics.hpp"
#include "select/algorithms.hpp"
#include "select/context.hpp"
#include "select/detail.hpp"
#include "select/obs.hpp"
#include "topo/connectivity.hpp"

namespace netsel::select {

namespace detail {
obs::Histogram& criterion_latency_hist(Criterion c) {
  // One histogram per criterion, registered on first use; the registry
  // keeps the objects alive so the references below never dangle.
  static obs::Histogram& compute = obs::Registry::global().histogram(
      "select.latency_s.max_compute", obs::exp_buckets(1e-6, 4.0, 12));
  static obs::Histogram& bandwidth = obs::Registry::global().histogram(
      "select.latency_s.max_bandwidth", obs::exp_buckets(1e-6, 4.0, 12));
  static obs::Histogram& balanced = obs::Registry::global().histogram(
      "select.latency_s.balanced", obs::exp_buckets(1e-6, 4.0, 12));
  switch (c) {
    case Criterion::MaxCompute: return compute;
    case Criterion::MaxBandwidth: return bandwidth;
    case Criterion::Balanced: return balanced;
  }
  return balanced;
}

obs::Counter& selections_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.selections");
  return c;
}
}  // namespace detail

SelectionResult select_max_compute(const SelectionContext& ctx,
                                   const SelectionOptions& opt) {
  detail::selections_counter().inc();
  obs::ScopedTimer timer(
      detail::criterion_latency_hist(Criterion::MaxCompute));
  const auto& snap = ctx.snapshot();
  validate_options(snap, opt);
  const int m = opt.num_nodes;

  // Unconstrained requests reuse the context's base decomposition; a fixed
  // bandwidth requirement changes the link set, so decompose per call.
  std::vector<char> mask = initial_link_mask(snap, opt);
  const topo::Components* comps;
  topo::Components local;
  if (opt.min_bw_bps > 0.0) {
    local = topo::connected_components(snap.graph(), mask);
    comps = &local;
  } else {
    comps = &ctx.base_components();
  }
  auto elig = ctx.eligibility(opt);
  auto counts = detail::counts_in_components(elig, *comps);

  SelectionResult result;
  double best = -std::numeric_limits<double>::infinity();
  for (int c = 0; c < comps->count; ++c) {
    if (counts[static_cast<std::size_t>(c)] < m) continue;
    auto members = detail::members_in_component(elig, *comps, c);
    auto chosen = detail::top_m_by_cpu(snap, opt, std::move(members), m);
    double mincpu = detail::min_cpu_of(snap, opt, chosen);
    if (mincpu > best) {
      best = mincpu;
      result.feasible = true;
      result.nodes = std::move(chosen);
      result.min_cpu = mincpu;
      result.min_bw_fraction =
          detail::min_fraction_in_component(snap, opt, *comps, c, mask);
      result.objective = mincpu;
    }
  }
  if (!result.feasible) result.note = "no component with enough eligible nodes";
  return result;
}

SelectionResult select_max_compute(const remos::NetworkSnapshot& snap,
                                   const SelectionOptions& opt) {
  SelectionContext ctx(snap);
  return select_max_compute(ctx, opt);
}

SelectionResult select_nodes(Criterion c, const SelectionContext& ctx,
                             const SelectionOptions& opt) {
  switch (c) {
    case Criterion::MaxCompute: return select_max_compute(ctx, opt);
    case Criterion::MaxBandwidth: return select_max_bandwidth(ctx, opt);
    case Criterion::Balanced: return select_balanced(ctx, opt);
  }
  SelectionResult r;
  r.note = "unknown criterion";
  return r;
}

SelectionResult select_nodes(Criterion c, const remos::NetworkSnapshot& snap,
                             const SelectionOptions& opt) {
  SelectionContext ctx(snap);
  return select_nodes(c, ctx, opt);
}

}  // namespace netsel::select
