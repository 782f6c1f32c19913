// netsel_cli — node selection from the command line.
//
// Reads a topology description (see topo/parse.hpp for the format), applies
// dynamic availability overrides, and runs the selection procedures —
// usable as a standalone placement tool for any network you can describe.
//
// Usage:
//   netsel_cli --topology FILE --nodes M [options]
//   netsel_cli --generate SPEC [--emit-topo | --nodes M [options]]
//   netsel_cli obs [--jobs N] [--seed S] [--tail K]
//              [--timeseries-json P] [--timeseries-csv P] [--job-trace P]
//              [--chrome-trace P]
//
// The `obs` subcommand runs a small deterministic scheduler scenario on a
// 128-host fat-tree with the full telemetry stack attached (time-series
// recorder, per-job causal traces, flight recorder), prints a summary and
// the flight-recorder tail, and optionally writes the artifacts — the
// quickest way to see docs/OBSERVABILITY.md's formats without a bench run.
//
// Options:
//   --generate SPEC              synthesise a topology instead of reading
//                                one (topo/synthetic.hpp). SPEC is
//                                FAMILY[:key=value,...] with families
//                                  fat-tree   keys hosts, ports, oversub, seed
//                                  campus-wan keys campuses, buildings,
//                                             hosts, seed
//                                  core-edge  keys cores, edges, hosts, seed
//                                e.g. --generate fat-tree:hosts=512,oversub=3
//   --emit-topo                  print the topology in .topo format (see
//                                docs/TOPO_FORMAT.md) and exit; combine with
//                                --generate to materialise synthetic fabrics
//                                (examples/topologies/fat_tree_small.topo is
//                                made this way)
//   --criterion compute|bandwidth|balanced|latency   (default balanced)
//   --load NODE=LOADAVG          repeatable: set a node's load average
//   --bw LINKNAME=BW             repeatable: set a link's available bw;
//                                LINKNAME is the link's name= or else
//                                a--b (e.g. --bw atm=20Mbps or
//                                --bw panama--m-1=20Mbps on testbed.topo)
//   --min-bw BW                  fixed bandwidth requirement (§3.3)
//   --min-cpu FRACTION           fixed cpu requirement (§3.3)
//   --cpu-priority K / --bw-priority K               (§3.3)
//   --max-latency T              latency ceiling, e.g. 5ms (extension)
//   --exhaustive                 exhaustive Fig. 3 sweep variant
//   --dot                        emit Graphviz DOT with selection highlighted
//
// Example:
//   netsel_cli --topology testbed.topo --nodes 4 --load m-16=2.0
//              --bw suez--m-18=5Mbps --criterion balanced --dot

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/jobtrace.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "remos/snapshot.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "select/algorithms.hpp"
#include "select/latency.hpp"
#include "select/objective.hpp"
#include "topo/dot.hpp"
#include "topo/parse.hpp"
#include "topo/synthetic.hpp"

using namespace netsel;

namespace {

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "netsel_cli: %s\n", message.c_str());
  std::exit(1);
}

std::optional<topo::LinkId> find_link(const topo::TopologyGraph& g,
                                      const std::string& name) {
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    if (g.link_name(static_cast<topo::LinkId>(l)) == name)
      return static_cast<topo::LinkId>(l);
  }
  return std::nullopt;
}

/// Parse a --generate SPEC (FAMILY[:key=value,...]) and build the topology.
topo::TopologyGraph generate_topology(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string family = spec.substr(0, colon);
  std::vector<std::pair<std::string, double>> kv;
  if (colon != std::string::npos) {
    std::stringstream rest(spec.substr(colon + 1));
    std::string item;
    while (std::getline(rest, item, ',')) {
      const auto eq = item.find('=');
      if (eq == std::string::npos)
        die("--generate: expected key=value, got '" + item + "'");
      kv.emplace_back(item.substr(0, eq), std::stod(item.substr(eq + 1)));
    }
  }
  auto take = [&](const char* key, double fallback) {
    for (auto& [k, v] : kv)
      if (k == key) {
        k.clear();  // consumed
        return v;
      }
    return fallback;
  };
  topo::TopologyGraph g;
  if (family == "fat-tree") {
    g = topo::fat_tree(topo::fat_tree_for_hosts(
        static_cast<int>(take("hosts", 64)),
        static_cast<int>(take("ports", 48)), take("oversub", 3.0),
        static_cast<std::uint64_t>(take("seed", 1))));
  } else if (family == "campus-wan") {
    topo::CampusWanOptions o;
    o.campuses = static_cast<int>(take("campuses", o.campuses));
    o.buildings_per_campus =
        static_cast<int>(take("buildings", o.buildings_per_campus));
    o.hosts_per_building =
        static_cast<int>(take("hosts", o.hosts_per_building));
    o.seed = static_cast<std::uint64_t>(take("seed", 1));
    g = topo::campus_wan(o);
  } else if (family == "core-edge") {
    topo::RandomCoreEdgeOptions o;
    o.core_switches = static_cast<int>(take("cores", o.core_switches));
    o.edge_switches = static_cast<int>(take("edges", o.edge_switches));
    o.hosts = static_cast<int>(take("hosts", o.hosts));
    o.seed = static_cast<std::uint64_t>(take("seed", 1));
    g = topo::random_core_edge(o);
  } else {
    die("--generate: unknown family '" + family +
        "' (fat-tree, campus-wan, core-edge)");
  }
  for (const auto& [k, v] : kv)
    if (!k.empty()) die("--generate: unknown key '" + k + "' for " + family);
  return g;
}

/// `netsel_cli obs`: run a deterministic scheduler scenario with the full
/// telemetry stack attached, print a summary plus the flight-recorder tail,
/// and optionally write the artifacts.
int run_obs(int argc, char** argv) {
  int jobs = 40;
  std::uint64_t seed = 4242;
  std::size_t tail = 16;
  const char* ts_json = nullptr;
  const char* ts_csv = nullptr;
  const char* jt_path = nullptr;
  const char* trace_path = nullptr;
  auto next_arg = [&](int& i) -> const char* {
    if (++i >= argc) die("missing value after " + std::string(argv[i - 1]));
    return argv[i];
  };
  for (int i = 2; i < argc; ++i) {
    try {
      if (std::strcmp(argv[i], "--jobs") == 0) {
        jobs = std::stoi(next_arg(i));
      } else if (std::strcmp(argv[i], "--seed") == 0) {
        seed = std::stoull(next_arg(i));
      } else if (std::strcmp(argv[i], "--tail") == 0) {
        tail = static_cast<std::size_t>(std::stoul(next_arg(i)));
      } else if (std::strcmp(argv[i], "--timeseries-json") == 0) {
        ts_json = next_arg(i);
      } else if (std::strcmp(argv[i], "--timeseries-csv") == 0) {
        ts_csv = next_arg(i);
      } else if (std::strcmp(argv[i], "--job-trace") == 0) {
        jt_path = next_arg(i);
      } else if (std::strcmp(argv[i], "--chrome-trace") == 0) {
        trace_path = next_arg(i);
      } else {
        die("obs: unknown option '" + std::string(argv[i]) + "'");
      }
    } catch (const std::exception& e) {
      die("obs: bad argument for " + std::string(argv[i - 1]) + ": " +
          e.what());
    }
  }
  if (jobs < 1) die("obs: --jobs must be >= 1");

  auto g = topo::fat_tree(topo::fat_tree_for_hosts(128, 16, 2.0, seed));
  obs::TimeSeriesRecorder ts(1.0);
  obs::JobTraceRecorder jt;

  sched::SchedulerConfig cfg;
  cfg.placement_lanes = 2;
  cfg.backfill_window = 6;
  cfg.schedule_interval = 1.0;
  cfg.max_queue_depth = 24;
  cfg.queue_timeout = 600.0;
  cfg.rebalance_on_release = true;
  cfg.rebalance_budget = 1;
  cfg.timeseries = &ts;
  cfg.job_trace = &jt;
  sched::SchedulerService sched(g, cfg);
  remos::apply_synthetic_load(sched.snapshot(), seed + 7);
  sched::WorkloadConfig w;
  w.arrival_rate = 2.0;
  w.seed = seed;
  sched::JobStream stream(w);
  stream.feed(sched, jobs);
  sched.drain();

  const sched::SchedulerStats st = sched.stats();
  std::printf(
      "obs scenario: %d jobs on a %zu-node fat-tree, seed %llu\n"
      "  placed %llu, completed %llu, rejected %llu, timed out %llu, "
      "conflicts %llu\n"
      "  state digest      %016llx\n"
      "  time series       %zu series, %zu samples (cadence %.1fs, "
      "%llu dropped), digest %016llx\n"
      "  job traces        %zu traces, %zu spans, digest %016llx\n"
      "  flight recorder   %llu events recorded (capacity %zu)\n\n",
      jobs, g.node_count(), static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(st.placed),
      static_cast<unsigned long long>(st.completed),
      static_cast<unsigned long long>(st.rejected),
      static_cast<unsigned long long>(st.timed_out),
      static_cast<unsigned long long>(st.conflicts),
      static_cast<unsigned long long>(sched.state_digest()), ts.series_count(),
      ts.samples(), ts.cadence(),
      static_cast<unsigned long long>(ts.dropped()),
      static_cast<unsigned long long>(ts.digest()), jt.traces(), jt.spans(),
      static_cast<unsigned long long>(jt.digest()),
      static_cast<unsigned long long>(obs::FlightRecorder::global().recorded()),
      obs::FlightRecorder::global().capacity());
  std::printf("flight-recorder tail (last %zu):\n", tail);
  obs::FlightRecorder::global().dump(std::cout, tail);

  auto write_to = [&](const char* path, auto&& fn) {
    if (!path) return;
    std::ofstream f(path);
    if (!f) die("obs: cannot open " + std::string(path) + " for writing");
    fn(f);
    std::fprintf(stderr, "wrote %s\n", path);
  };
  write_to(ts_json, [&](std::ostream& os) { ts.write_json(os); });
  write_to(ts_csv, [&](std::ostream& os) { ts.write_csv(os); });
  write_to(jt_path, [&](std::ostream& os) { jt.write_jsonl(os); });
  write_to(trace_path, [&](std::ostream& os) {
    obs::write_chrome_trace(obs::Registry::global(), os, &ts, &jt);
  });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "obs") == 0) return run_obs(argc, argv);
  std::string topology_path;
  std::string generate_spec;
  std::string criterion = "balanced";
  bool emit_topo = false;
  int m = 0;
  std::vector<std::pair<std::string, double>> loads;
  std::vector<std::pair<std::string, double>> bws;
  select::SelectionOptions opt;
  double max_latency = -1.0;
  bool dot = false;

  auto next_arg = [&](int& i) -> std::string {
    if (++i >= argc) die("missing value after " + std::string(argv[i - 1]));
    return argv[i];
  };
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    try {
      if (a == "--topology") {
        topology_path = next_arg(i);
      } else if (a == "--generate") {
        generate_spec = next_arg(i);
      } else if (a == "--emit-topo") {
        emit_topo = true;
      } else if (a == "--nodes") {
        m = std::stoi(next_arg(i));
      } else if (a == "--criterion") {
        criterion = next_arg(i);
      } else if (a == "--load") {
        std::string kv = next_arg(i);
        auto eq = kv.find('=');
        if (eq == std::string::npos) die("--load needs NODE=LOADAVG");
        loads.emplace_back(kv.substr(0, eq), std::stod(kv.substr(eq + 1)));
      } else if (a == "--bw") {
        std::string kv = next_arg(i);
        auto eq = kv.find('=');
        if (eq == std::string::npos) die("--bw needs LINKNAME=BW");
        bws.emplace_back(kv.substr(0, eq),
                         topo::parse_bandwidth(kv.substr(eq + 1)));
      } else if (a == "--min-bw") {
        opt.min_bw_bps = topo::parse_bandwidth(next_arg(i));
      } else if (a == "--min-cpu") {
        opt.min_cpu_fraction = std::stod(next_arg(i));
      } else if (a == "--cpu-priority") {
        opt.cpu_priority = std::stod(next_arg(i));
      } else if (a == "--bw-priority") {
        opt.bw_priority = std::stod(next_arg(i));
      } else if (a == "--max-latency") {
        max_latency = topo::parse_duration(next_arg(i));
      } else if (a == "--exhaustive") {
        opt.exhaustive_balanced = true;
      } else if (a == "--dot") {
        dot = true;
      } else {
        die("unknown option '" + a + "' (see the header of netsel_cli.cpp)");
      }
    } catch (const std::exception& e) {
      die("bad argument for " + a + ": " + e.what());
    }
  }
  if (topology_path.empty() == generate_spec.empty())
    die("exactly one of --topology / --generate is required");
  if (!emit_topo && m < 1) die("--nodes M (>= 1) is required");

  topo::TopologyGraph g;
  if (!generate_spec.empty()) {
    g = generate_topology(generate_spec);
  } else {
    std::ifstream in(topology_path);
    if (!in) die("cannot open " + topology_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    try {
      g = topo::parse_topology(buffer.str());
    } catch (const std::exception& e) {
      die(topology_path + ": " + e.what());
    }
  }
  if (emit_topo) {
    std::printf("%s", topo::format_topology(g).c_str());
    return 0;
  }

  remos::NetworkSnapshot snap(g);
  for (const auto& [name, load] : loads) {
    auto n = g.find_node(name);
    if (!n) die("--load: unknown node '" + name + "'");
    snap.set_loadavg(*n, load);
  }
  for (const auto& [name, bw] : bws) {
    auto l = find_link(g, name);
    if (!l) die("--bw: unknown link '" + name + "' (names are a--b or the link's name= option)");
    snap.set_bw(*l, bw);
  }

  opt.num_nodes = m;
  select::SelectionResult result;
  try {
    if (criterion == "compute") {
      result = select::select_max_compute(snap, opt);
    } else if (criterion == "bandwidth") {
      result = select::select_max_bandwidth(snap, opt);
    } else if (criterion == "balanced") {
      result = max_latency >= 0.0
                   ? select::select_balanced_latency_bound(snap, opt, max_latency)
                   : select::select_balanced(snap, opt);
    } else if (criterion == "latency") {
      result = select::select_min_latency(snap, opt);
    } else {
      die("unknown criterion '" + criterion + "'");
    }
  } catch (const std::exception& e) {
    die(std::string("selection failed: ") + e.what());
  }

  if (!result.feasible) {
    std::fprintf(stderr, "infeasible: %s\n", result.note.c_str());
    return 2;
  }
  std::printf("selected %zu node(s):", result.nodes.size());
  for (auto n : result.nodes)
    std::printf(" %s", std::string(g.node_name(n)).c_str());
  std::printf("\n");
  auto ev = select::evaluate_set(snap, result.nodes, opt);
  std::printf("min cpu availability:      %.3f\n", ev.min_cpu);
  if (result.nodes.size() > 1) {
    std::printf("min pairwise bandwidth:    %.1f Mbps (fraction %.3f)\n",
                ev.min_pair_bw / 1e6, ev.min_pair_bw_fraction);
    std::printf("max pairwise latency:      %.3f ms\n",
                ev.max_pair_latency * 1e3);
  }
  std::printf("objective value:           %.4g\n", result.objective);
  if (!result.note.empty()) std::printf("note: %s\n", result.note.c_str());
  if (dot) {
    topo::DotOptions d;
    d.highlight = result.nodes;
    std::printf("\n%s", topo::to_dot(g, d).c_str());
  }
  return 0;
}
