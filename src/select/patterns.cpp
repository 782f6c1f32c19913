#include "select/patterns.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "select/algorithms.hpp"
#include "select/detail.hpp"
#include "topo/routing.hpp"

namespace netsel::select {

DirectionalPathBw directional_path_bw(const remos::NetworkSnapshot& snap,
                                      topo::NodeId src, topo::NodeId dst) {
  const auto& g = snap.graph();
  const topo::BfsTree tree(g, src);
  if (!tree.reached(dst)) return DirectionalPathBw{0.0, 0.0};
  DirectionalPathBw out{std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::infinity()};
  for (const topo::Hop& h : tree.path_to(dst)) {
    const topo::Link& lk = g.link(h.link);
    out.available = std::min(out.available, snap.bw_dir(h.link, h.forward));
    out.peak = std::min(out.peak, h.forward ? lk.capacity_ab : lk.capacity_ba);
  }
  return out;
}

ClientServerResult select_client_server(const remos::NetworkSnapshot& snap,
                                        const ClientServerOptions& opt) {
  const auto& g = snap.graph();
  ClientServerResult result;
  if (opt.num_servers < 1 || opt.num_clients < 1)
    throw std::invalid_argument("select_client_server: need servers and clients");
  if (opt.cpu_priority <= 0.0 || opt.bw_priority <= 0.0)
    throw std::invalid_argument("select_client_server: priorities must be > 0");
  if ((!opt.server_eligible.empty() &&
       opt.server_eligible.size() != g.node_count()) ||
      (!opt.client_eligible.empty() &&
       opt.client_eligible.size() != g.node_count()))
    throw std::invalid_argument("select_client_server: mask size mismatch");

  // --- Servers: maximum available computation capacity (§3.4). ---
  SelectionOptions sopt;
  sopt.num_nodes = opt.num_servers;
  sopt.reference_cpu_capacity = opt.reference_cpu_capacity;
  sopt.reference_bw = opt.reference_bw;
  sopt.eligible = opt.server_eligible;
  auto servers = select_max_compute(snap, sopt);
  if (!servers.feasible) {
    result.note = "server group infeasible: " + servers.note;
    return result;
  }
  result.servers = servers.nodes;

  // --- Clients: top-k by min(cpu/kc, worst server->client direction/kb). --
  SelectionOptions copt;
  copt.num_nodes = opt.num_clients;
  copt.reference_cpu_capacity = opt.reference_cpu_capacity;
  copt.reference_bw = opt.reference_bw;
  copt.eligible = opt.client_eligible;

  struct Scored {
    topo::NodeId node;
    double value;
  };
  std::vector<Scored> scored;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    auto id = static_cast<topo::NodeId>(i);
    if (!node_eligible(snap, id, copt)) continue;
    if (std::find(result.servers.begin(), result.servers.end(), id) !=
        result.servers.end())
      continue;
    double worst_dir = std::numeric_limits<double>::infinity();
    for (topo::NodeId s : result.servers) {
      auto path = directional_path_bw(snap, s, id);
      // Heterogeneous-link rule (§3.3): with a reference link, the fraction
      // is availability over the reference capacity; without one, over the
      // path's own structural bottleneck.
      double fraction = opt.reference_bw > 0.0 ? path.available / opt.reference_bw
                                               : path.fraction();
      worst_dir = std::min(worst_dir, fraction);
    }
    double value = std::min(node_cpu(snap, id, copt) / opt.cpu_priority,
                            worst_dir / opt.bw_priority);
    scored.push_back({id, value});
  }
  if (static_cast<int>(scored.size()) < opt.num_clients) {
    result.note = "not enough eligible client nodes";
    return result;
  }
  std::stable_sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    return a.value > b.value;
  });
  scored.resize(static_cast<std::size_t>(opt.num_clients));
  result.objective = scored.back().value;
  for (const Scored& s : scored) result.clients.push_back(s.node);
  std::sort(result.clients.begin(), result.clients.end());
  result.feasible = true;
  return result;
}

namespace {

/// Hill-climbing bound of select_pipeline; each pass tries every swap once.
constexpr int kMaxLocalSearchPasses = 20;

void validate_pipeline_options(const remos::NetworkSnapshot& snap,
                               const PipelineOptions& opt) {
  if (opt.stage_work.size() < 2)
    throw std::invalid_argument("pipeline: need >= 2 stages");
  if (opt.transfer_bytes.size() != opt.stage_work.size() - 1)
    throw std::invalid_argument("pipeline: transfer_bytes must be stages-1");
  for (double w : opt.stage_work)
    if (w <= 0.0) throw std::invalid_argument("pipeline: stage work must be > 0");
  for (double b : opt.transfer_bytes)
    if (b < 0.0) throw std::invalid_argument("pipeline: negative transfer");
  if (opt.reference_cpu_capacity <= 0.0)
    throw std::invalid_argument("pipeline: reference capacity must be > 0");
  if (!opt.eligible.empty() &&
      opt.eligible.size() != snap.graph().node_count())
    throw std::invalid_argument("pipeline: mask size mismatch");
}

}  // namespace

double pipeline_period(const remos::NetworkSnapshot& snap,
                       const PipelineOptions& opt,
                       const std::vector<topo::NodeId>& stage_nodes) {
  if (stage_nodes.size() != opt.stage_work.size())
    throw std::invalid_argument("pipeline_period: assignment size mismatch");
  double period = 0.0;
  for (std::size_t s = 0; s < stage_nodes.size(); ++s) {
    double cpu =
        snap.cpu_reference(stage_nodes[s], opt.reference_cpu_capacity);
    if (cpu <= 0.0) return std::numeric_limits<double>::infinity();
    period = std::max(period, opt.stage_work[s] / cpu);
    if (s + 1 < stage_nodes.size() && opt.transfer_bytes[s] > 0.0 &&
        stage_nodes[s] != stage_nodes[s + 1]) {
      double bw =
          directional_path_bw(snap, stage_nodes[s], stage_nodes[s + 1]).available;
      if (bw <= 0.0) return std::numeric_limits<double>::infinity();
      period = std::max(period, opt.transfer_bytes[s] * 8.0 / bw);
    }
  }
  return period;
}

PipelineResult select_pipeline(const remos::NetworkSnapshot& snap,
                               const PipelineOptions& opt) {
  validate_pipeline_options(snap, opt);
  const auto& g = snap.graph();
  const auto m = static_cast<int>(opt.stage_work.size());

  // Candidate pool: the strongest nodes by available cpu.
  SelectionOptions eo;
  eo.eligible = opt.eligible;
  eo.reference_cpu_capacity = opt.reference_cpu_capacity;
  std::vector<topo::NodeId> pool;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    auto id = static_cast<topo::NodeId>(i);
    if (node_eligible(snap, id, eo)) pool.push_back(id);
  }
  PipelineResult result;
  if (static_cast<int>(pool.size()) < m) {
    result.note = "not enough eligible nodes";
    return result;
  }
  std::stable_sort(pool.begin(), pool.end(), [&](topo::NodeId a, topo::NodeId b) {
    return snap.cpu_reference(a, opt.reference_cpu_capacity) >
           snap.cpu_reference(b, opt.reference_cpu_capacity);
  });
  int pool_size = opt.candidate_pool > 0 ? opt.candidate_pool : m + 4;
  pool.resize(std::min<std::size_t>(pool.size(),
                                    static_cast<std::size_t>(
                                        std::max(pool_size, m))));

  // Rate matching: heaviest stage gets the fastest node.
  std::vector<std::size_t> stage_order(opt.stage_work.size());
  for (std::size_t s = 0; s < stage_order.size(); ++s) stage_order[s] = s;
  std::stable_sort(stage_order.begin(), stage_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return opt.stage_work[a] > opt.stage_work[b];
                   });
  std::vector<topo::NodeId> assignment(opt.stage_work.size());
  for (std::size_t rank = 0; rank < stage_order.size(); ++rank)
    assignment[stage_order[rank]] = pool[rank];

  double best = pipeline_period(snap, opt, assignment);

  // Local search: swap two stages' nodes, or replace a stage's node with an
  // unused pool node; accept strict improvements.
  std::vector<char> used(pool.size(), 0);
  auto refresh_used = [&] {
    std::fill(used.begin(), used.end(), 0);
    for (topo::NodeId n : assignment) {
      for (std::size_t p = 0; p < pool.size(); ++p)
        if (pool[p] == n) used[p] = 1;
    }
  };
  refresh_used();
  for (int pass = 0; pass < kMaxLocalSearchPasses; ++pass) {
    bool improved = false;
    for (std::size_t a = 0; a < assignment.size(); ++a) {
      for (std::size_t b = a + 1; b < assignment.size(); ++b) {
        std::swap(assignment[a], assignment[b]);
        double period = pipeline_period(snap, opt, assignment);
        if (period < best - 1e-15) {
          best = period;
          improved = true;
        } else {
          std::swap(assignment[a], assignment[b]);
        }
      }
      for (std::size_t p = 0; p < pool.size(); ++p) {
        if (used[p]) continue;
        topo::NodeId old = assignment[a];
        assignment[a] = pool[p];
        double period = pipeline_period(snap, opt, assignment);
        if (period < best - 1e-15) {
          best = period;
          improved = true;
          refresh_used();
        } else {
          assignment[a] = old;
        }
      }
    }
    if (!improved) break;
  }

  result.feasible = true;
  result.stage_nodes = std::move(assignment);
  result.predicted_period = best;
  return result;
}

}  // namespace netsel::select
