#include "api/advisor.hpp"

#include <limits>
#include <stdexcept>

#include "select/context.hpp"
#include "select/objective.hpp"
#include "topo/routing.hpp"

namespace netsel::api {

namespace {

/// The (src, dst) messages a pattern sends on a placement.
std::vector<std::pair<topo::NodeId, topo::NodeId>> pattern_messages(
    appsim::CommPattern pattern, const std::vector<topo::NodeId>& nodes) {
  std::vector<std::pair<topo::NodeId, topo::NodeId>> msgs;
  const int m = static_cast<int>(nodes.size());
  switch (pattern) {
    case appsim::CommPattern::None:
      break;
    case appsim::CommPattern::AllToAll:
      for (int i = 0; i < m; ++i)
        for (int j = 0; j < m; ++j)
          if (i != j)
            msgs.emplace_back(nodes[static_cast<std::size_t>(i)],
                              nodes[static_cast<std::size_t>(j)]);
      break;
    case appsim::CommPattern::Ring:
      for (int i = 0; i < m; ++i)
        msgs.emplace_back(nodes[static_cast<std::size_t>(i)],
                          nodes[static_cast<std::size_t>((i + 1) % m)]);
      break;
    case appsim::CommPattern::Gather:
      for (int i = 1; i < m; ++i)
        msgs.emplace_back(nodes[static_cast<std::size_t>(i)], nodes[0]);
      break;
    case appsim::CommPattern::Broadcast:
      for (int i = 1; i < m; ++i)
        msgs.emplace_back(nodes[0], nodes[static_cast<std::size_t>(i)]);
      break;
  }
  return msgs;
}

/// Communication-phase estimate on the actual placement: count how many of
/// the pattern's concurrent messages traverse each link direction and take
/// the worst direction's drain time, count * bits / available. This
/// captures concentration on shared trunks (e.g. a cross-router all-to-all
/// pushes every cross pair through one backbone link), which a plain
/// bottleneck-bandwidth model misses.
double comm_phase_seconds(appsim::CommPattern pattern, double bytes,
                          const remos::NetworkSnapshot& snap,
                          const std::vector<topo::NodeId>& nodes) {
  if (pattern == appsim::CommPattern::None || bytes <= 0.0 ||
      nodes.size() < 2)
    return 0.0;
  const auto& g = snap.graph();
  std::vector<double> dir_load(g.link_count() * 2, 0.0);
  for (const auto& [src, dst] : pattern_messages(pattern, nodes)) {
    for (const topo::Hop& h : topo::bfs_path(g, src, dst))
      ++dir_load[static_cast<std::size_t>(h.link) * 2 + (h.forward ? 0 : 1)];
  }
  double worst = 0.0;
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    for (bool forward : {true, false}) {
      double count = dir_load[l * 2 + (forward ? 0 : 1)];
      if (count == 0.0) continue;
      double avail = snap.bw_dir(static_cast<topo::LinkId>(l), forward);
      if (avail <= 0.0) return std::numeric_limits<double>::infinity();
      worst = std::max(worst, count * bytes * 8.0 / avail);
    }
  }
  return worst;
}

}  // namespace

double predict_loosely_synchronous(const appsim::LooselySyncConfig& cfg,
                                   const select::SelectionContext& ctx,
                                   const std::vector<topo::NodeId>& nodes,
                                   const select::SelectionOptions& opt) {
  if (static_cast<int>(nodes.size()) != cfg.num_nodes)
    throw std::invalid_argument("predict: node count mismatch");
  auto ev = select::evaluate_set(ctx, nodes, opt);
  if (!ev.connected) return std::numeric_limits<double>::infinity();
  double per_iteration = 0.0;
  for (const auto& phase : cfg.phases) {
    if (phase.work_per_node > 0.0) {
      if (ev.min_cpu <= 0.0) return std::numeric_limits<double>::infinity();
      per_iteration += phase.work_per_node / ev.min_cpu;
    }
    per_iteration += comm_phase_seconds(phase.pattern, phase.bytes_per_message,
                                        ctx.snapshot(), nodes);
  }
  return per_iteration * cfg.iterations;
}

double predict_loosely_synchronous(const appsim::LooselySyncConfig& cfg,
                                   const remos::NetworkSnapshot& snap,
                                   const std::vector<topo::NodeId>& nodes,
                                   const select::SelectionOptions& opt) {
  select::SelectionContext ctx(snap);
  return predict_loosely_synchronous(cfg, ctx, nodes, opt);
}

double predict_master_slave(const appsim::MasterSlaveConfig& cfg,
                            const select::SelectionContext& ctx,
                            const std::vector<topo::NodeId>& nodes,
                            const select::SelectionOptions& opt) {
  const auto& snap = ctx.snapshot();
  if (static_cast<int>(nodes.size()) != cfg.num_nodes)
    throw std::invalid_argument("predict: node count mismatch");
  const int slaves = cfg.num_nodes - 1;
  topo::NodeId master = nodes[0];
  // Worst-case synchronized transfers: all slaves' inputs share the
  // master's path concurrently (observed on the simulated testbed — slaves
  // with equal cycle lengths stay phase-locked), so each transfer sees
  // 1/slaves of the path bandwidth.
  double throughput = 0.0;  // tasks per second, summed over slaves
  for (int s = 0; s < slaves; ++s) {
    topo::NodeId slave = nodes[static_cast<std::size_t>(s) + 1];
    double cpu = snap.cpu_reference(slave, opt.reference_cpu_capacity);
    if (cpu <= 0.0) continue;
    auto path = select::evaluate_set(ctx, {master, slave}, opt);
    if (!path.connected || path.min_pair_bw <= 0.0)
      return std::numeric_limits<double>::infinity();
    double share = path.min_pair_bw / static_cast<double>(slaves);
    double cycle = cfg.task_work / cpu;
    if (cfg.input_bytes > 0.0) cycle += cfg.input_bytes * 8.0 / share;
    if (cfg.output_bytes > 0.0) cycle += cfg.output_bytes * 8.0 / share;
    throughput += 1.0 / cycle;
  }
  if (throughput <= 0.0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(cfg.num_tasks) / throughput;
}

double predict_master_slave(const appsim::MasterSlaveConfig& cfg,
                            const remos::NetworkSnapshot& snap,
                            const std::vector<topo::NodeId>& nodes,
                            const select::SelectionOptions& opt) {
  select::SelectionContext ctx(snap);
  return predict_master_slave(cfg, ctx, nodes, opt);
}

namespace {

template <typename Config, typename Predictor>
NodeCountChoice choose_impl(const std::function<Config(int)>& config_for_m,
                            const remos::NetworkSnapshot& snap,
                            const NodeCountOptions& opt, Predictor predict) {
  if (opt.min_nodes < 1 || opt.max_nodes < opt.min_nodes)
    throw std::invalid_argument("choose_node_count: bad node range");
  // One context for the whole m-sweep: every selection and prediction below
  // runs against the same snapshot.
  select::SelectionContext ctx(snap);
  NodeCountChoice choice;
  double best = std::numeric_limits<double>::infinity();
  for (int m = opt.min_nodes; m <= opt.max_nodes; ++m) {
    Config cfg = config_for_m(m);
    if (cfg.num_nodes != m)
      throw std::invalid_argument(
          "choose_node_count: config_for_m(m) must request m nodes");
    select::SelectionOptions sel = opt.selection;
    sel.num_nodes = m;
    auto selected = select::select_nodes(opt.criterion, ctx, sel);
    if (!selected.feasible) {
      choice.predictions.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    double predicted = predict(cfg, ctx, selected.nodes, sel);
    choice.predictions.push_back(predicted);
    if (predicted < best) {
      best = predicted;
      choice.feasible = true;
      choice.num_nodes = m;
      choice.nodes = std::move(selected.nodes);
      choice.predicted_seconds = predicted;
    }
  }
  return choice;
}

}  // namespace

NodeCountChoice choose_node_count(
    const std::function<appsim::LooselySyncConfig(int)>& config_for_m,
    const remos::NetworkSnapshot& snap, const NodeCountOptions& opt) {
  return choose_impl<appsim::LooselySyncConfig>(
      config_for_m, snap, opt,
      [](const appsim::LooselySyncConfig& cfg,
         const select::SelectionContext& c,
         const std::vector<topo::NodeId>& nodes,
         const select::SelectionOptions& o) {
        return predict_loosely_synchronous(cfg, c, nodes, o);
      });
}

NodeCountChoice choose_node_count(
    const std::function<appsim::MasterSlaveConfig(int)>& config_for_m,
    const remos::NetworkSnapshot& snap, const NodeCountOptions& opt) {
  return choose_impl<appsim::MasterSlaveConfig>(
      config_for_m, snap, opt,
      [](const appsim::MasterSlaveConfig& cfg,
         const select::SelectionContext& c,
         const std::vector<topo::NodeId>& nodes,
         const select::SelectionOptions& o) {
        return predict_master_slave(cfg, c, nodes, o);
      });
}

namespace {

/// The m eligible compute nodes nearest to `center` by hop count (ties by
/// cpu, then id) — clustered candidates that keep the application's own
/// traffic off shared trunks. Empty when fewer than m are reachable.
std::vector<topo::NodeId> hop_cluster(const remos::NetworkSnapshot& snap,
                                      const select::SelectionOptions& opt,
                                      topo::NodeId center, int m) {
  const auto& g = snap.graph();
  const topo::BfsTree tree(g, center);
  std::vector<topo::NodeId> pool;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    auto id = static_cast<topo::NodeId>(i);
    if (tree.reached(id) && select::node_eligible(snap, id, opt))
      pool.push_back(id);
  }
  if (static_cast<int>(pool.size()) < m) return {};
  std::stable_sort(pool.begin(), pool.end(), [&](topo::NodeId a, topo::NodeId b) {
    const int ha = tree.depth(a);
    const int hb = tree.depth(b);
    if (ha != hb) return ha < hb;
    return select::node_cpu(snap, a, opt) > select::node_cpu(snap, b, opt);
  });
  pool.resize(static_cast<std::size_t>(m));
  std::sort(pool.begin(), pool.end());
  return pool;
}

}  // namespace

ModelPlacement place_with_model(const appsim::LooselySyncConfig& cfg,
                                const remos::NetworkSnapshot& snap,
                                const select::SelectionOptions& base) {
  select::SelectionOptions opt = base;
  opt.num_nodes = cfg.num_nodes;

  // Shared across the three selection procedures, every hop-cluster
  // candidate evaluation, and the model ranking below.
  select::SelectionContext ctx(snap);

  struct Candidate {
    std::string source;
    std::vector<topo::NodeId> nodes;
  };
  std::vector<Candidate> candidates;
  auto add = [&](const char* source, select::SelectionResult r) {
    if (r.feasible) candidates.push_back({source, std::move(r.nodes)});
  };
  add("balanced", select::select_balanced(ctx, opt));
  add("max-compute", select::select_max_compute(ctx, opt));
  add("max-bandwidth", select::select_max_bandwidth(ctx, opt));
  for (std::size_t c = 0; c < snap.graph().node_count(); ++c) {
    auto center = static_cast<topo::NodeId>(c);
    auto nodes = hop_cluster(snap, opt, center, cfg.num_nodes);
    if (!nodes.empty())
      candidates.push_back(
          {"cluster@" + std::string(snap.graph().node_name(center)),
           std::move(nodes)});
  }

  ModelPlacement best;
  double best_time = std::numeric_limits<double>::infinity();
  for (auto& cand : candidates) {
    double t = predict_loosely_synchronous(cfg, ctx, cand.nodes, opt);
    if (t < best_time) {
      best_time = t;
      best.feasible = true;
      best.nodes = std::move(cand.nodes);
      best.predicted_seconds = t;
      best.source = std::move(cand.source);
    }
  }
  return best;
}

}  // namespace netsel::api
