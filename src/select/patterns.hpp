#pragma once
// Custom execution patterns — the extension sketched in the paper's §3.4:
// "a client-server application may require that the node with the maximum
// available computation capacity be assigned to the server, and that only
// communication from the servers to the clients is significant. Our
// application interface allows description of such scenarios (and Remos has
// the relevant information), and we are currently investigating the
// algorithm extensions necessary to accurately handle a richer set of
// application patterns."
//
// select_client_server implements that extension: servers are chosen for
// maximum compute capacity; clients are then chosen by a per-node value
// combining their own cpu with the *directional* (server -> client)
// available bandwidth of their paths from every server. Because the metric
// of a client does not depend on which other clients are chosen (it is an
// availability measure, not a simultaneous-schedule measure — see the
// paper's §3.4 "Simultaneous traffic streams" limitation), picking the
// top-k clients by value is exact for this objective.

#include "remos/snapshot.hpp"
#include "select/options.hpp"

namespace netsel::select {

struct ClientServerOptions {
  int num_servers = 1;
  int num_clients = 3;
  /// Priorities applied to the client value min(cpu/kc, dir_bw/kb).
  double cpu_priority = 1.0;
  double bw_priority = 1.0;
  /// Reference normalisations as in SelectionOptions.
  double reference_cpu_capacity = 1.0;
  double reference_bw = 0.0;
  /// Optional eligibility masks (empty = all compute nodes). Servers and
  /// clients may not overlap; server nodes are removed from the client
  /// pool automatically.
  std::vector<char> server_eligible;
  std::vector<char> client_eligible;
};

struct ClientServerResult {
  bool feasible = false;
  std::vector<topo::NodeId> servers;
  std::vector<topo::NodeId> clients;
  /// min over chosen clients of min(cpu/kc, server->client dir fraction/kb).
  double objective = 0.0;
  std::string note;
};

ClientServerResult select_client_server(const remos::NetworkSnapshot& snap,
                                        const ClientServerOptions& opt);

// ---------------------------------------------------------------------------
// Pipeline pattern: a chain of stages, one node each; steady-state period
// (seconds per item) is gated by the slowest stage computation or
// inter-stage transfer. Placement must match heavy stages to fast nodes
// while keeping heavy transfers on fast directional paths.
// ---------------------------------------------------------------------------

struct PipelineOptions {
  /// Reference-CPU-seconds per item per stage (>= 2 stages).
  std::vector<double> stage_work;
  /// Bytes between consecutive stages (stages - 1 entries).
  std::vector<double> transfer_bytes;
  double reference_cpu_capacity = 1.0;
  /// Optional eligibility mask over all node ids.
  std::vector<char> eligible;
  /// Candidate nodes considered (top by cpu); 0 means stages + 4.
  int candidate_pool = 0;
};

struct PipelineResult {
  bool feasible = false;
  /// Node per stage, in stage order (may repeat-free by construction).
  std::vector<topo::NodeId> stage_nodes;
  /// Predicted steady-state seconds per item at the bottleneck.
  double predicted_period = 0.0;
  std::string note;
};

/// Steady-state period of a given assignment: the maximum over stage
/// compute times (work/cpu) and transfer times (bytes*8 / directional
/// available bandwidth on the stage_i -> stage_{i+1} path).
double pipeline_period(const remos::NetworkSnapshot& snap,
                       const PipelineOptions& opt,
                       const std::vector<topo::NodeId>& stage_nodes);

/// Choose nodes and the stage assignment jointly: rate-matching start
/// (heaviest stage on the fastest node) + swap-based local search (at most
/// 20 passes) over a top-cpu candidate pool. Certified near-optimal against
/// exhaustive assignment enumeration on small instances in the tests.
PipelineResult select_pipeline(const remos::NetworkSnapshot& snap,
                               const PipelineOptions& opt);

/// Bottleneck *directional* bandwidth along the static route from src to
/// dst (topo/routing.hpp): current availability and structural peak, in
/// bits/second; {+inf, +inf} when src == dst, {0, 0} when dst is
/// unreachable. Throws std::out_of_range for an id outside
/// [0, node_count()).
struct DirectionalPathBw {
  double available = 0.0;
  double peak = 0.0;
  /// available normalised by peak (1.0 for src == dst).
  double fraction() const { return peak > 0.0 ? available / peak : 1.0; }
};
DirectionalPathBw directional_path_bw(const remos::NetworkSnapshot& snap,
                                      topo::NodeId src, topo::NodeId dst);

}  // namespace netsel::select
