#pragma once
// Text format for topology descriptions, so tools and experiments can load
// testbeds without recompiling. One directive per line:
//
//   # comment (also trailing)
//   node <name> compute [capacity=<x>] [memory=<bytes>] [tags=a,b,c]
//   node <name> router|switch
//   link <a> <b> <bw>[/<bw-back>] [latency=<t>] [name=<s>]
//
// Bandwidths accept bps/Kbps/Mbps/Gbps suffixes (e.g. 100Mbps, 1.5Gbps);
// latencies accept s/ms/us (e.g. 0.2ms). Example:
//
//   node panama router
//   node m-1 compute capacity=1.0 tags=alpha
//   link m-1 panama 100Mbps latency=0.05ms
//   link gibraltar suez 155Mbps name=atm

#include <stdexcept>
#include <string>
#include <string_view>

#include "topo/graph.hpp"

namespace netsel::topo {

/// Parse failure with a 1-based line number and explanation.
class ParseError : public std::runtime_error {
 public:
  ParseError(int line, const std::string& message);
  int line() const { return line_; }

 private:
  int line_;
};

/// Parse a topology description; throws ParseError — citing the 1-based
/// line of the offending directive — for malformed input *and* for
/// graph-level violations (duplicate names, self loops, bad capacities).
/// Whole-file violations with no single offending line (empty graph,
/// disconnected graph, no compute nodes) surface as std::invalid_argument
/// from the final validation. See docs/TOPO_FORMAT.md for the grammar.
TopologyGraph parse_topology(std::string_view text);

/// Parse a bandwidth like "100Mbps", "2.5Gbps", "800000bps" to bits/second.
double parse_bandwidth(std::string_view text);

/// Parse a duration like "0.2ms", "5us", "1.5s" to seconds.
double parse_duration(std::string_view text);

/// Parse a byte size like "512MB", "2GB", "64KB", "100B" to bytes.
double parse_bytes(std::string_view text);

/// Serialise a graph back to the text format (round-trips with
/// parse_topology up to formatting). A link gets `name=` exactly when it
/// has an explicit name; a derived "a--b" name is re-derived on parse.
std::string format_topology(const TopologyGraph& g);

}  // namespace netsel::topo
