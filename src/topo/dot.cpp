#include "topo/dot.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/table.hpp"

namespace netsel::topo {

std::string to_dot(const TopologyGraph& g, const DotOptions& opt) {
  if (!opt.link_labels.empty() && opt.link_labels.size() != g.link_count())
    throw std::invalid_argument("to_dot: link_labels size mismatch");
  std::ostringstream os;
  os << "graph " << opt.graph_name << " {\n";
  os << "  layout=neato; overlap=false; splines=true;\n";
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    if (g.node_removed(static_cast<NodeId>(i))) continue;
    const auto id = static_cast<NodeId>(i);
    bool hl = std::find(opt.highlight.begin(), opt.highlight.end(), id) !=
              opt.highlight.end();
    os << "  \"" << g.node_name(id) << "\" [shape="
       << (g.node(id).kind() == NodeKind::Network ? "box" : "ellipse");
    if (hl) os << ", penwidth=3, style=bold";
    os << "];\n";
  }
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    if (g.link_removed(static_cast<LinkId>(l))) continue;
    const Link& lk = g.link(static_cast<LinkId>(l));
    std::string label;
    if (!opt.link_labels.empty() && !opt.link_labels[l].empty()) {
      label = opt.link_labels[l];
    } else {
      label = util::fmt_mbps(lk.capacity_min());
    }
    os << "  \"" << g.node_name(lk.a) << "\" -- \"" << g.node_name(lk.b)
       << "\" [label=\"" << label << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace netsel::topo
