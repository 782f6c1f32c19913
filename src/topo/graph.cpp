#include "topo/graph.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <sstream>
#include <stdexcept>

namespace netsel::topo {

namespace {

std::size_t name_hash(std::string_view name) {
  return std::hash<std::string_view>{}(name);
}

/// Smallest power-of-two table that holds `names` names at most half full.
std::size_t name_table_size(std::size_t names) {
  std::size_t slots = 16;
  while (slots < 2 * names) slots *= 2;
  return slots;
}

/// Throws unless `text` can be written back as one .topo token: whitespace
/// separates tokens and '#' starts a comment; within a tag list, ','
/// separates tags.
void require_token(std::string_view text, const char* what, bool tag = false) {
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '#' ||
        (tag && c == ','))
      throw std::invalid_argument(std::string(what) + " '" + std::string(text) +
                                  (tag ? "' contains whitespace, '#' or ','"
                                       : "' contains whitespace or '#'"));
  }
}

/// The entry for `id` in an id-sorted side vector, or end().
template <typename Vec>
auto find_by_id(const Vec& v, std::int32_t id) {
  auto it = std::lower_bound(
      v.begin(), v.end(), id,
      [](const auto& entry, std::int32_t x) { return entry.first < x; });
  return it != v.end() && it->first == id ? it : v.end();
}

}  // namespace

void TopologyGraph::reserve(std::size_t nodes, std::size_t links) {
  nodes_.reserve(nodes);
  name_end_.reserve(nodes);
  links_.reserve(links);
  if (const std::size_t slots = name_table_size(nodes);
      slots > name_slots_.size())
    rehash_names(slots);
}

std::size_t TopologyGraph::name_slot(std::string_view name) const {
  const std::size_t mask = name_slots_.size() - 1;
  for (std::size_t s = name_hash(name) & mask;; s = (s + 1) & mask) {
    const NodeId id = name_slots_[s];
    if (id == kInvalidNode || name_of(static_cast<std::size_t>(id)) == name)
      return s;
  }
}

void TopologyGraph::rehash_names(std::size_t slots) {
  name_slots_.assign(slots, kInvalidNode);
  const std::size_t mask = slots - 1;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (node_removed(static_cast<NodeId>(i))) continue;
    std::size_t s = name_hash(name_of(i)) & mask;
    while (name_slots_[s] != kInvalidNode) s = (s + 1) & mask;
    name_slots_[s] = static_cast<NodeId>(i);
  }
}

NodeId TopologyGraph::add_node(std::string_view name, Node n) {
  if (name.empty()) throw std::invalid_argument("node name must be non-empty");
  require_token(name, "node name");
  if (name.size() >
      std::numeric_limits<std::uint32_t>::max() - name_chars_.size())
    throw std::length_error("node names exceed the 4 GiB name arena");
  if (2 * (name_count_ + 1) > name_slots_.size())
    rehash_names(name_table_size(name_count_ + 1));
  const std::size_t s = name_slot(name);
  if (name_slots_[s] != kInvalidNode)
    throw std::invalid_argument("duplicate node name: " + std::string(name));
  auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(n);
  name_chars_.append(name);
  name_end_.push_back(static_cast<std::uint32_t>(name_chars_.size()));
  if (csr_.built) csr_.start.push_back(csr_.start.back());
  name_slots_[s] = id;
  ++name_count_;
  return id;
}

NodeId TopologyGraph::add_compute(std::string_view name, double cpu_capacity,
                                  std::vector<std::string> tags) {
  if (!std::isfinite(cpu_capacity) || cpu_capacity <= 0.0)
    throw std::invalid_argument("cpu_capacity must be finite and > 0 for " +
                                std::string(name));
  for (const auto& t : tags) require_token(t, "tag", /*tag=*/true);
  Node n;
  n.cpu_capacity = cpu_capacity;
  const NodeId id = add_node(name, n);
  if (!tags.empty()) node_tags_.emplace_back(id, std::move(tags));
  return id;
}

void TopologyGraph::set_memory(NodeId n, double bytes) {
  if (n < 0 || static_cast<std::size_t>(n) >= nodes_.size())
    throw std::invalid_argument("set_memory: node out of range");
  if (nodes_[static_cast<std::size_t>(n)].kind() != NodeKind::Compute)
    throw std::invalid_argument("set_memory: not a compute node");
  if (!std::isfinite(bytes) || bytes < 0.0)
    throw std::invalid_argument("set_memory: bytes must be finite and >= 0");
  nodes_[static_cast<std::size_t>(n)].memory_bytes = bytes;
}

NodeId TopologyGraph::add_network(std::string_view name) {
  Node n;
  n.cpu_capacity = 0.0;
  return add_node(name, n);
}

LinkId TopologyGraph::add_link(NodeId a, NodeId b, double capacity_bps) {
  return add_link(a, b, capacity_bps, capacity_bps);
}

LinkId TopologyGraph::add_link(NodeId a, NodeId b, LinkSpec spec) {
  if (!std::isfinite(spec.latency) || spec.latency < 0.0)
    throw std::invalid_argument("add_link: latency must be finite and >= 0");
  // A NaN capacity_ba is passed on (and rejected) rather than read as
  // "same as capacity_ab".
  LinkId id = add_link(a, b, spec.capacity_ab,
                       spec.capacity_ba > 0.0 || std::isnan(spec.capacity_ba)
                           ? spec.capacity_ba
                           : spec.capacity_ab,
                       std::move(spec.name));
  links_[static_cast<std::size_t>(id)].latency = spec.latency;
  return id;
}

LinkId TopologyGraph::add_link(NodeId a, NodeId b, double capacity_ab,
                               double capacity_ba, std::string name) {
  auto valid = [&](NodeId x) {
    return x >= 0 && static_cast<std::size_t>(x) < nodes_.size();
  };
  if (!valid(a) || !valid(b))
    throw std::invalid_argument("add_link: endpoint out of range");
  if (a == b) throw std::invalid_argument("add_link: self loops not allowed");
  auto valid_capacity = [](double c) { return std::isfinite(c) && c > 0.0; };
  if (!valid_capacity(capacity_ab) || !valid_capacity(capacity_ba))
    throw std::invalid_argument("add_link: capacities must be finite and > 0");
  require_token(name, "link name");
  Link l;
  l.a = a;
  l.b = b;
  l.capacity_ab = capacity_ab;
  l.capacity_ba = capacity_ba;
  links_.push_back(l);
  auto id = static_cast<LinkId>(links_.size() - 1);
  if (!name.empty()) link_names_.emplace_back(id, std::move(name));
  // The new id is the largest, so it goes at the end of both rows.
  if (csr_.built) {
    csr_append(a, id);
    csr_append(b, id);
  }
  return id;
}

void TopologyGraph::remove_link(LinkId l) {
  if (l < 0 || static_cast<std::size_t>(l) >= links_.size())
    throw std::invalid_argument("remove_link: link out of range");
  if (link_removed(l)) throw std::invalid_argument("remove_link: already removed");
  // Erase from both rows preserving the order of the survivors: links_of()
  // order defines the deterministic BFS trees. Before the CSR is built the
  // tombstone alone drops the link from the build.
  if (csr_.built) {
    const Link& lk = links_[static_cast<std::size_t>(l)];
    csr_erase(lk.a, l);
    csr_erase(lk.b, l);
  }
  if (link_removed_.size() < links_.size()) link_removed_.resize(links_.size(), 0);
  link_removed_[static_cast<std::size_t>(l)] = 1;
}

void TopologyGraph::remove_node(NodeId n) {
  if (n < 0 || static_cast<std::size_t>(n) >= nodes_.size())
    throw std::invalid_argument("remove_node: node out of range");
  if (node_removed(n)) throw std::invalid_argument("remove_node: already removed");
  if (degree(n) != 0)
    throw std::invalid_argument("remove_node: remove incident links first");
  if (node_removed_.size() < nodes_.size()) node_removed_.resize(nodes_.size(), 0);
  // Free the name by backward-shift deletion: walk the rest of the probe
  // cluster and move into the hole every entry whose probe path from its
  // home slot passes the hole, so no lookup meets a gap before its key.
  const std::size_t mask = name_slots_.size() - 1;
  std::size_t hole = name_slot(name_of(static_cast<std::size_t>(n)));
  for (std::size_t s = (hole + 1) & mask; name_slots_[s] != kInvalidNode;
       s = (s + 1) & mask) {
    const NodeId id = name_slots_[s];
    const std::size_t home =
        name_hash(name_of(static_cast<std::size_t>(id))) & mask;
    if (((s - hole) & mask) <= ((s - home) & mask)) {
      name_slots_[hole] = id;
      hole = s;
    }
  }
  name_slots_[hole] = kInvalidNode;
  --name_count_;
  node_removed_[static_cast<std::size_t>(n)] = 1;
}

std::string_view TopologyGraph::node_name(NodeId n) const {
  if (n < 0 || static_cast<std::size_t>(n) >= nodes_.size())
    throw std::out_of_range("node_name: node out of range");
  return name_of(static_cast<std::size_t>(n));
}

std::string TopologyGraph::link_name(LinkId l) const {
  if (const std::string_view name = explicit_link_name(l); !name.empty())
    return std::string(name);
  const Link& lk = link(l);
  std::string out(node_name(lk.a));
  out += "--";
  out += node_name(lk.b);
  return out;
}

std::string_view TopologyGraph::explicit_link_name(LinkId l) const {
  (void)link(l);  // range check
  const auto it = find_by_id(link_names_, l);
  return it == link_names_.end() ? std::string_view() : it->second;
}

std::span<const std::string> TopologyGraph::tags(NodeId n) const {
  (void)node(n);  // range check
  const auto it = find_by_id(node_tags_, n);
  return it == node_tags_.end() ? std::span<const std::string>() : it->second;
}

bool TopologyGraph::has_tag(NodeId n, std::string_view tag) const {
  const auto t = tags(n);
  return std::find(t.begin(), t.end(), tag) != t.end();
}

TopologyGraph::Csr& TopologyGraph::Csr::operator=(const Csr& o) {
  if (this == &o) return *this;
  const bool b = o.built;
  start = b ? o.start : std::vector<std::int32_t>{};
  link = b ? o.link : std::vector<LinkId>{};
  built = b;
  return *this;
}

TopologyGraph::Csr& TopologyGraph::Csr::operator=(Csr&& o) noexcept {
  if (this == &o) return *this;
  start = std::move(o.start);
  link = std::move(o.link);
  built = o.built.load();
  o.start.clear();
  o.link.clear();
  o.built = false;
  return *this;
}

const TopologyGraph::Csr& TopologyGraph::csr() const {
  if (!csr_.built) build_csr();
  return csr_;
}

void TopologyGraph::build_csr() const {
  const std::lock_guard<std::mutex> lock(csr_.build_mutex);
  if (csr_.built) return;  // another thread's first read built it
  // Counting sort of the live links by endpoint, in id order: count the
  // degrees into start[n + 1], prefix-sum them into row starts, then place
  // each half-edge at its row's cursor start[n]++. That leaves start[n]
  // at row n's end, which is row n + 1's start: shift back by one.
  const std::size_t V = nodes_.size();
  std::vector<std::int32_t> start(V + 1, 0);
  for (std::size_t l = 0; l < links_.size(); ++l) {
    if (link_removed(static_cast<LinkId>(l))) continue;
    ++start[static_cast<std::size_t>(links_[l].a) + 1];
    ++start[static_cast<std::size_t>(links_[l].b) + 1];
  }
  for (std::size_t n = 0; n < V; ++n) start[n + 1] += start[n];
  std::vector<LinkId> link(static_cast<std::size_t>(start[V]));
  for (std::size_t l = 0; l < links_.size(); ++l) {
    if (link_removed(static_cast<LinkId>(l))) continue;
    for (const NodeId end : {links_[l].a, links_[l].b})
      link[static_cast<std::size_t>(start[static_cast<std::size_t>(end)]++)] =
          static_cast<LinkId>(l);
  }
  for (std::size_t n = V; n > 0; --n) start[n] = start[n - 1];
  start[0] = 0;
  csr_.start = std::move(start);
  csr_.link = std::move(link);
  csr_.built = true;
}

void TopologyGraph::csr_append(NodeId at, LinkId l) {
  auto& start = csr_.start;
  const auto row_end = static_cast<std::size_t>(at) + 1;
  csr_.link.insert(csr_.link.begin() + start[row_end], l);
  for (std::size_t k = row_end; k < start.size(); ++k) ++start[k];
}

void TopologyGraph::csr_erase(NodeId at, LinkId l) {
  auto& start = csr_.start;
  const auto row = static_cast<std::size_t>(at);
  const auto first = csr_.link.begin() + start[row];
  csr_.link.erase(std::find(first, csr_.link.begin() + start[row + 1], l));
  for (std::size_t k = row + 1; k < start.size(); ++k) --start[k];
}

TopologyGraph::Adjacency TopologyGraph::adjacency() const {
  const Csr& c = csr();
  return {c.start, c.link};
}

std::span<const LinkId> TopologyGraph::links_of(NodeId n) const {
  if (n < 0 || static_cast<std::size_t>(n) >= nodes_.size())
    throw std::out_of_range("links_of: node out of range");
  const Csr& c = csr();
  const auto i = static_cast<std::size_t>(n);
  return std::span<const LinkId>(c.link).subspan(
      static_cast<std::size_t>(c.start[i]),
      static_cast<std::size_t>(c.start[i + 1] - c.start[i]));
}

NodeId TopologyGraph::other_end(LinkId l, NodeId n) const {
  const Link& lk = link(l);
  if (lk.a == n) return lk.b;
  if (lk.b == n) return lk.a;
  throw std::invalid_argument("other_end: node is not an endpoint of link");
}

std::optional<NodeId> TopologyGraph::find_node(std::string_view name) const {
  if (name_slots_.empty()) return std::nullopt;
  const NodeId id = name_slots_[name_slot(name)];
  if (id == kInvalidNode) return std::nullopt;
  return id;
}

std::vector<NodeId> TopologyGraph::compute_nodes() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (is_compute(static_cast<NodeId>(i))) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

std::size_t TopologyGraph::compute_node_count() const {
  std::size_t c = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (is_compute(static_cast<NodeId>(i))) ++c;
  return c;
}

void TopologyGraph::validate() const {
  if (nodes_.empty()) throw std::invalid_argument("topology: empty graph");
  if (compute_node_count() == 0)
    throw std::invalid_argument("topology: no compute nodes");
  // Connectivity via BFS from the first present node; removed (tombstoned)
  // nodes are not expected to be reachable.
  std::size_t present = 0;
  NodeId start = kInvalidNode;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (node_removed(static_cast<NodeId>(i))) continue;
    ++present;
    if (start == kInvalidNode) start = static_cast<NodeId>(i);
  }
  if (start == kInvalidNode) throw std::invalid_argument("topology: empty graph");
  std::vector<char> seen(nodes_.size(), 0);
  std::queue<NodeId> q;
  q.push(start);
  seen[static_cast<std::size_t>(start)] = 1;
  std::size_t reached = 1;
  while (!q.empty()) {
    NodeId u = q.front();
    q.pop();
    for (LinkId l : links_of(u)) {
      NodeId v = other_end(l, u);
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        ++reached;
        q.push(v);
      }
    }
  }
  if (reached != present) {
    std::ostringstream os;
    os << "topology: graph is disconnected (" << reached << " of " << present
       << " nodes reachable from "
       << name_of(static_cast<std::size_t>(start)) << ")";
    throw std::invalid_argument(os.str());
  }
}

bool TopologyGraph::is_acyclic() const {
  // A connected undirected graph is acyclic iff |E| = |V| - 1; for possibly
  // disconnected graphs, acyclic iff |E| = |V| - #components. Use union-find.
  std::vector<NodeId> parent(nodes_.size());
  for (std::size_t i = 0; i < parent.size(); ++i)
    parent[i] = static_cast<NodeId>(i);
  auto find = [&](NodeId x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (link_removed(static_cast<LinkId>(i))) continue;
    const Link& l = links_[i];
    NodeId ra = find(l.a), rb = find(l.b);
    if (ra == rb) return false;  // this edge closes a cycle
    parent[static_cast<std::size_t>(ra)] = rb;
  }
  return true;
}

}  // namespace netsel::topo
