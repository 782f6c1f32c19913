#pragma once
// Logical network topology graph (paper §3.1).
//
// A node is either a *compute node* (a processor available for computation)
// or a *network node* (a router/switch used for routing). Edges are
// communication links with a peak capacity per direction; the paper's
// `maxbw(i,j)` is a static property stored here, while the dynamically
// varying `bw(i,j)` lives in remos::NetworkSnapshot.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace netsel::topo {

using NodeId = std::int32_t;
using LinkId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;
inline constexpr LinkId kInvalidLink = -1;

enum class NodeKind : std::uint8_t { Compute, Network };

struct Node {
  /// Relative computation capacity; the reference node type is 1.0
  /// (paper §3.3, "Heterogeneous links and nodes"). Finite and > 0 for a
  /// compute node, 0 for a network node, which is what kind() reads.
  double cpu_capacity = 1.0;
  /// Physical memory in bytes (paper §3.4 lists "memory and disk
  /// availability on the compute nodes" as future factors; the
  /// memory-aware extension consumes this). 0 means "not modelled".
  double memory_bytes = 0.0;
  // Name: TopologyGraph::node_name(), which keeps every name in one arena.
  // Tags: TopologyGraph::tags(), which stores only non-empty lists.

  NodeKind kind() const {
    return cpu_capacity > 0.0 ? NodeKind::Compute : NodeKind::Network;
  }
};

struct Link {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  /// Peak bandwidth (bits/second) in the a->b direction.
  double capacity_ab = 0.0;
  /// Peak bandwidth in the b->a direction. Equal to capacity_ab for the
  /// shared-fabric links of §3.1; may differ for the independent
  /// bidirectional links of §3.3.
  double capacity_ba = 0.0;
  /// One-way propagation latency in seconds (paper §3.4 lists latency as a
  /// factor for future work; the latency-aware extension consumes this).
  double latency = 0.0;
  // Name: TopologyGraph::link_name(), which stores only explicit names.

  /// Peak capacity used for selection: the paper takes the minimum of the
  /// two directions for bidirectional links (§3.3).
  double capacity_min() const { return capacity_ab < capacity_ba ? capacity_ab : capacity_ba; }
  /// The endpoint opposite `n`, unchecked: `n` must be a or b (see
  /// TopologyGraph::other_end for the checked form).
  NodeId other(NodeId n) const { return a == n ? b : a; }
};

/// An immutable-after-build undirected multigraph. Nodes and links are
/// referenced by dense integer ids so per-node/per-link state elsewhere
/// (simulator, snapshots) is stored in flat arrays.
///
/// The adjacency is one CSR: per node an offset into an array of half-edge
/// link ids. links_of(n) lists n's live links in ascending id — add_link
/// hands out increasing ids and remove_link never reorders — so a counting
/// sort over the link records rebuilds it exactly. That order fixes every
/// BFS tree of the selection stack. Until the first adjacency read (or
/// validate(), which every generator and the parser call last) the add and
/// remove calls only append or tombstone, so generating a graph is one
/// pass; the first read builds the CSR, safely from several threads at
/// once, and from then on each structural mutation patches it in place in
/// O(V + E). Any structural mutation (add_*, remove_*) invalidates every
/// span links_of() and adjacency() have returned: copy a node's links
/// before removing them. Mutating while other threads read is unsupported.
///
/// Node and link names, and tags, are tokens of the .topo format
/// (topo/parse.hpp): the add_* calls reject whitespace and '#' in them, and
/// ',' in a tag, so format_topology can always write a graph back.
class TopologyGraph {
 public:
  /// Pre-size for `nodes` nodes and `links` links, so a builder that knows
  /// its counts (the topo/synthetic.hpp generators) adds them without
  /// regrowing the node, link or name-index storage. Purely a capacity hint.
  void reserve(std::size_t nodes, std::size_t links);

  /// Add a compute node. Names must be unique across the graph; an add that
  /// would take the name arena past 4 GiB throws std::length_error before
  /// any state change. Tags are free-form attributes for placement
  /// constraints (e.g. "alpha", "gpu").
  NodeId add_compute(std::string_view name, double cpu_capacity = 1.0,
                     std::vector<std::string> tags = {});
  /// Set a compute node's physical memory (bytes; §3.4 extension).
  void set_memory(NodeId n, double bytes);
  /// Add a network (router/switch) node; names as for add_compute.
  NodeId add_network(std::string_view name);
  /// Add an undirected link with symmetric capacity (bits/second).
  LinkId add_link(NodeId a, NodeId b, double capacity_bps);
  /// Add a link with distinct per-direction capacities. An empty name
  /// leaves the link with its derived name (see link_name()).
  LinkId add_link(NodeId a, NodeId b, double capacity_ab, double capacity_ba,
                  std::string name = {});

  /// Full link specification for heterogeneous links.
  struct LinkSpec {
    double capacity_ab = 0.0;
    double capacity_ba = 0.0;  ///< 0 means "same as capacity_ab"
    double latency = 0.0;      ///< one-way seconds
    std::string name;          ///< empty: the derived "a--b" name
  };
  LinkId add_link(NodeId a, NodeId b, LinkSpec spec);

  /// Remove a link. Ids are never recycled: the Link record stays readable
  /// (endpoints, capacities) and keeps its slot in link_count(), but the
  /// link disappears from links_of()/degree() and link_removed() turns true.
  /// Live NetworkSnapshots must be told via notify_link_removed().
  void remove_link(LinkId l);
  bool link_removed(LinkId l) const {
    return static_cast<std::size_t>(l) < link_removed_.size() &&
           link_removed_[static_cast<std::size_t>(l)];
  }

  /// Remove a node. Only degree-0 nodes may be removed (remove the incident
  /// links first), so traversals need no per-edge check. The id stays
  /// allocated; is_compute() turns false and the name becomes reusable.
  void remove_node(NodeId n);
  bool node_removed(NodeId n) const {
    return static_cast<std::size_t>(n) < node_removed_.size() &&
           node_removed_[static_cast<std::size_t>(n)];
  }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }
  const Node& node(NodeId id) const { return nodes_.at(static_cast<std::size_t>(id)); }
  const Link& link(LinkId id) const { return links_.at(static_cast<std::size_t>(id)); }

  /// The node's name; a removed node keeps its own. Throws std::out_of_range
  /// for an id outside [0, node_count()).
  std::string_view node_name(NodeId n) const;

  /// The link's explicit name, or else "a--b" built from its endpoints'
  /// names in add_link order. Only explicit names are stored.
  std::string link_name(LinkId l) const;
  /// The explicit name given to add_link, or "" when the name is derived.
  std::string_view explicit_link_name(LinkId l) const;
  /// The node's tags in add_compute order; empty for most nodes.
  std::span<const std::string> tags(NodeId n) const;
  bool has_tag(NodeId n, std::string_view tag) const;

  /// Ids of the live links incident to `n`, ascending. Throws
  /// std::out_of_range for an id outside [0, node_count()).
  std::span<const LinkId> links_of(NodeId n) const;

  /// Unchecked CSR view for hot loops: node n's links are
  /// link[start[n]] .. link[start[n+1] - 1], exactly links_of(n).
  struct Adjacency {
    std::span<const std::int32_t> start;  ///< node_count() + 1 offsets
    std::span<const LinkId> link;         ///< 2 x live links, by node
  };
  Adjacency adjacency() const;
  /// Every link record by id, removed ones included.
  std::span<const Link> links() const { return links_; }
  /// The node at the other end of link `l` from node `n`; throws if `n` is
  /// not an endpoint of `l`.
  NodeId other_end(LinkId l, NodeId n) const;

  std::optional<NodeId> find_node(std::string_view name) const;
  /// All compute-node ids, in id order.
  std::vector<NodeId> compute_nodes() const;
  std::size_t compute_node_count() const;

  bool is_compute(NodeId n) const {
    return node(n).kind() == NodeKind::Compute && !node_removed(n);
  }

  /// Degree (number of incident links).
  std::size_t degree(NodeId n) const { return links_of(n).size(); }

  /// Throws std::invalid_argument if the graph is empty, has no compute
  /// node, or is disconnected. Call after building. Duplicate names and
  /// non-positive or non-finite capacities never get this far: the add_*
  /// and set_memory calls reject them.
  void validate() const;

  /// True if the graph contains no cycle (the baseline assumption of §3.2).
  bool is_acyclic() const;

 private:
  NodeId add_node(std::string_view name, Node n);
  /// Node i's name, unchecked.
  std::string_view name_of(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : name_end_[i - 1];
    return {name_chars_.data() + begin, name_end_[i] - begin};
  }
  /// The name_slots_ slot holding `name`'s id, or the empty slot where its
  /// probe sequence ends. Requires a non-empty table.
  std::size_t name_slot(std::string_view name) const;
  /// Rebuild name_slots_ at `slots` (a power of two) from the present nodes.
  void rehash_names(std::size_t slots);

  /// The CSR adjacency, its built flag and the lock of its first build. A
  /// copy carries the CSR only once it is built: a half-built one belongs to
  /// another thread's first read, and the copy then builds its own on its
  /// own first read.
  struct Csr {
    std::vector<std::int32_t> start;  ///< node_count() + 1 row offsets
    std::vector<LinkId> link;         ///< half-edge link ids, by row
    std::atomic<bool> built{false};
    std::mutex build_mutex;
    Csr() = default;
    Csr(const Csr& o) { *this = o; }
    Csr(Csr&& o) noexcept { *this = std::move(o); }
    Csr& operator=(const Csr& o);
    Csr& operator=(Csr&& o) noexcept;
  };
  /// The built CSR: builds it on the first call, under build_mutex, so
  /// concurrent first reads are safe.
  const Csr& csr() const;
  void build_csr() const;
  /// Insert link `l` at the end of node `at`'s row, or erase it from the
  /// row. Both keep the other rows' order; O(V + E) memmoves.
  void csr_append(NodeId at, LinkId l);
  void csr_erase(NodeId at, LinkId l);

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  /// Every node name, removed nodes' included, back to back in id order:
  /// node i's name ends at name_end_[i] and starts where node i - 1's ends.
  std::string name_chars_;
  std::vector<std::uint32_t> name_end_;
  /// The explicit link names and the non-empty tag lists, sorted by id.
  /// Ids are only ever appended, so push_back keeps them sorted; most links
  /// and nodes of a generated fabric have neither.
  std::vector<std::pair<LinkId, std::string>> link_names_;
  std::vector<std::pair<NodeId, std::vector<std::string>>> node_tags_;
  mutable Csr csr_;
  /// Tombstones; empty (all-present) until the first removal, so the
  /// append-only fast paths allocate nothing.
  std::vector<char> link_removed_;
  std::vector<char> node_removed_;
  /// name -> id for the present nodes: an open-addressed, linear-probing
  /// table of node ids keyed by a hash of the node's name. Each name is
  /// stored once (in name_chars_) and an entry allocates nothing, which is
  /// what keeps building a 1M-node graph cheap. Power-of-two size, at most
  /// half full; kInvalidNode marks an empty slot. remove_node
  /// backward-shifts the probe cluster instead of leaving tombstones.
  std::vector<NodeId> name_slots_;
  std::size_t name_count_ = 0;
};

}  // namespace netsel::topo
