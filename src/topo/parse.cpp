#include "topo/parse.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <vector>

#include "util/table.hpp"

namespace netsel::topo {

namespace {

std::vector<std::string> split_ws(std::string_view line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) out.emplace_back(line.substr(start, i - start));
  }
  return out;
}

std::vector<std::string> split_on(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

/// `text` as a number times `scale`. std::from_chars accepts "nan" and
/// "inf", and a large mantissa can overflow once scaled, so a non-finite
/// result is rejected here rather than left to slip past the callers'
/// sign checks.
double parse_number(std::string_view text, int line, const char* what,
                    double scale = 1.0) {
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size())
    throw ParseError(line, std::string("malformed ") + what + ": '" +
                               std::string(text) + "'");
  value *= scale;
  if (!std::isfinite(value))
    throw ParseError(line, std::string(what) + " must be finite: '" +
                               std::string(text) + "'");
  return value;
}

/// Splits "key=value"; returns false when no '=' present.
bool split_kv(std::string_view token, std::string& key, std::string& value) {
  std::size_t pos = token.find('=');
  if (pos == std::string_view::npos) return false;
  key = std::string(token.substr(0, pos));
  value = std::string(token.substr(pos + 1));
  return true;
}

double parse_bandwidth_at(std::string_view text, int line) {
  auto ends_with = [&](std::string_view suffix) {
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
  };
  double scale = 1.0;
  std::string_view digits = text;
  if (ends_with("Gbps")) {
    scale = 1e9;
    digits = text.substr(0, text.size() - 4);
  } else if (ends_with("Mbps")) {
    scale = 1e6;
    digits = text.substr(0, text.size() - 4);
  } else if (ends_with("Kbps")) {
    scale = 1e3;
    digits = text.substr(0, text.size() - 4);
  } else if (ends_with("bps")) {
    digits = text.substr(0, text.size() - 3);
  } else {
    throw ParseError(line, "bandwidth needs a bps/Kbps/Mbps/Gbps suffix: '" +
                               std::string(text) + "'");
  }
  double v = parse_number(digits, line, "bandwidth", scale);
  if (v <= 0.0) throw ParseError(line, "bandwidth must be > 0");
  return v;
}

double parse_duration_at(std::string_view text, int line) {
  auto ends_with = [&](std::string_view suffix) {
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
  };
  double scale = 1.0;
  std::string_view digits = text;
  if (ends_with("us")) {
    scale = 1e-6;
    digits = text.substr(0, text.size() - 2);
  } else if (ends_with("ms")) {
    scale = 1e-3;
    digits = text.substr(0, text.size() - 2);
  } else if (ends_with("s")) {
    digits = text.substr(0, text.size() - 1);
  } else {
    throw ParseError(line, "duration needs an s/ms/us suffix: '" +
                               std::string(text) + "'");
  }
  double v = parse_number(digits, line, "duration", scale);
  if (v < 0.0) throw ParseError(line, "duration must be >= 0");
  return v;
}

double parse_bytes_at(std::string_view text, int line) {
  auto ends_with = [&](std::string_view suffix) {
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
  };
  double scale = 1.0;
  std::string_view digits = text;
  if (ends_with("GB")) {
    scale = 1e9;
    digits = text.substr(0, text.size() - 2);
  } else if (ends_with("MB")) {
    scale = 1e6;
    digits = text.substr(0, text.size() - 2);
  } else if (ends_with("KB")) {
    scale = 1e3;
    digits = text.substr(0, text.size() - 2);
  } else if (ends_with("B")) {
    digits = text.substr(0, text.size() - 1);
  } else {
    throw ParseError(line, "byte size needs a B/KB/MB/GB suffix: '" +
                               std::string(text) + "'");
  }
  double v = parse_number(digits, line, "byte size", scale);
  if (v <= 0.0) throw ParseError(line, "byte size must be > 0");
  return v;
}

/// Run a graph mutation on behalf of the directive at `line`; graph-level
/// rejections (duplicate names, self loops, non-positive capacities) become
/// ParseErrors citing that line, so every malformed-input diagnostic names
/// the offending line (see docs/TOPO_FORMAT.md).
template <typename Fn>
decltype(auto) at_line(int line, Fn&& fn) {
  try {
    return std::forward<Fn>(fn)();
  } catch (const std::invalid_argument& e) {
    throw ParseError(line, e.what());
  }
}

}  // namespace

ParseError::ParseError(int line, const std::string& message)
    : std::runtime_error("line " + std::to_string(line) + ": " + message),
      line_(line) {}

double parse_bandwidth(std::string_view text) {
  return parse_bandwidth_at(text, 0);
}

double parse_duration(std::string_view text) {
  return parse_duration_at(text, 0);
}

double parse_bytes(std::string_view text) { return parse_bytes_at(text, 0); }

TopologyGraph parse_topology(std::string_view text) {
  TopologyGraph g;
  int line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    // Strip comments.
    if (std::size_t hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    auto tokens = split_ws(line);
    if (tokens.empty()) {
      if (end == text.size()) break;
      continue;
    }

    if (tokens[0] == "node") {
      if (tokens.size() < 3)
        throw ParseError(line_no, "node needs: node <name> <kind> [options]");
      const std::string& name = tokens[1];
      const std::string& kind = tokens[2];
      if (kind == "router" || kind == "switch") {
        if (tokens.size() > 3)
          throw ParseError(line_no, "network nodes take no options");
        at_line(line_no, [&] { return g.add_network(name); });
      } else if (kind == "compute") {
        double capacity = 1.0;
        double memory = 0.0;
        std::vector<std::string> tags;
        for (std::size_t t = 3; t < tokens.size(); ++t) {
          std::string key, value;
          if (!split_kv(tokens[t], key, value))
            throw ParseError(line_no, "expected key=value, got '" + tokens[t] + "'");
          if (key == "capacity") {
            capacity = parse_number(value, line_no, "capacity");
          } else if (key == "memory") {
            memory = parse_bytes_at(value, line_no);
          } else if (key == "tags") {
            tags = split_on(value, ',');
          } else {
            throw ParseError(line_no, "unknown node option '" + key + "'");
          }
        }
        at_line(line_no, [&] {
          NodeId id = g.add_compute(name, capacity, std::move(tags));
          if (memory > 0.0) g.set_memory(id, memory);
        });
      } else {
        throw ParseError(line_no,
                         "node kind must be compute/router/switch, got '" +
                             kind + "'");
      }
    } else if (tokens[0] == "link") {
      if (tokens.size() < 4)
        throw ParseError(line_no, "link needs: link <a> <b> <bw> [options]");
      auto a = g.find_node(tokens[1]);
      auto b = g.find_node(tokens[2]);
      if (!a) throw ParseError(line_no, "unknown node '" + tokens[1] + "'");
      if (!b) throw ParseError(line_no, "unknown node '" + tokens[2] + "'");
      TopologyGraph::LinkSpec spec;
      auto caps = split_on(tokens[3], '/');
      if (caps.size() > 2)
        throw ParseError(line_no, "bandwidth is <bw> or <bw>/<bw-back>");
      spec.capacity_ab = parse_bandwidth_at(caps[0], line_no);
      spec.capacity_ba =
          caps.size() == 2 ? parse_bandwidth_at(caps[1], line_no) : 0.0;
      for (std::size_t t = 4; t < tokens.size(); ++t) {
        std::string key, value;
        if (!split_kv(tokens[t], key, value))
          throw ParseError(line_no, "expected key=value, got '" + tokens[t] + "'");
        if (key == "latency") {
          spec.latency = parse_duration_at(value, line_no);
        } else if (key == "name") {
          spec.name = value;
        } else {
          throw ParseError(line_no, "unknown link option '" + key + "'");
        }
      }
      at_line(line_no, [&] { return g.add_link(*a, *b, std::move(spec)); });
    } else {
      throw ParseError(line_no, "unknown directive '" + tokens[0] + "'");
    }
    if (end == text.size()) break;
  }
  g.validate();
  return g;
}

std::string format_topology(const TopologyGraph& g) {
  std::ostringstream os;
  // Removed (tombstoned) nodes and links are skipped: the serialised form
  // describes the present topology, so a mutated graph round-trips to an
  // equivalent graph with compacted ids.
  os << "# " << g.node_count() << " nodes, " << g.link_count() << " links\n";
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    if (g.node_removed(static_cast<NodeId>(i))) continue;
    const Node& n = g.node(static_cast<NodeId>(i));
    const std::string_view name = g.node_name(static_cast<NodeId>(i));
    if (n.kind() == NodeKind::Network) {
      os << "node " << name << " router\n";
    } else {
      os << "node " << name << " compute capacity=" << n.cpu_capacity;
      if (n.memory_bytes > 0.0) os << " memory=" << n.memory_bytes << "B";
      const auto tags = g.tags(static_cast<NodeId>(i));
      for (std::size_t t = 0; t < tags.size(); ++t)
        os << (t ? "," : " tags=") << tags[t];
      os << "\n";
    }
  }
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    if (g.link_removed(static_cast<LinkId>(l))) continue;
    const Link& lk = g.link(static_cast<LinkId>(l));
    os << "link " << g.node_name(lk.a) << " " << g.node_name(lk.b) << " "
       << lk.capacity_ab / 1e6 << "Mbps";
    if (lk.capacity_ba != lk.capacity_ab)
      os << "/" << lk.capacity_ba / 1e6 << "Mbps";
    if (lk.latency > 0.0) os << " latency=" << lk.latency << "s";
    if (const auto name = g.explicit_link_name(static_cast<LinkId>(l));
        !name.empty())
      os << " name=" << name;
    os << "\n";
  }
  return os.str();
}

}  // namespace netsel::topo
