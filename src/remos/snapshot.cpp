#include "remos/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/flight.hpp"
#include "util/rng.hpp"

namespace netsel::remos {

namespace {

/// The throw path of the setter guards, out of line so the guards
/// themselves stay small enough to inline into the setters.
[[noreturn]] void reject_write(const char* what, const char* why) {
  throw std::invalid_argument(std::string(what) + ": " + why);
}

}  // namespace

NetworkSnapshot::NetworkSnapshot(const topo::TopologyGraph& g)
    : graph_(&g),
      cpu_(g.node_count(), 0.0),
      free_memory_(g.node_count(), 0.0),
      bw_dir_(g.link_count() * 2, 0.0) {
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    auto id = static_cast<topo::NodeId>(i);
    if (g.is_compute(id)) {
      cpu_[i] = 1.0;
      free_memory_[i] = g.node(id).memory_bytes;
    }
  }
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    if (g.link_removed(static_cast<topo::LinkId>(l))) continue;  // stays 0
    const topo::Link& lk = g.link(static_cast<topo::LinkId>(l));
    bw_dir_[l * 2 + 0] = lk.capacity_ab;
    bw_dir_[l * 2 + 1] = lk.capacity_ba;
  }
}

void NetworkSnapshot::record(const Delta& d) {
  ++epoch_;
  if (journal_cap_ == 0) {
    journal_first_epoch_ = epoch_;
    return;
  }
  if (journal_.size() < journal_cap_) {
    journal_.push_back(d);
    ++journal_size_;
    return;
  }
  if (journal_size_ == journal_cap_) {
    // Full: overwrite the oldest slot.
    journal_[journal_head_] = d;
    journal_head_ = (journal_head_ + 1) % journal_cap_;
    ++journal_first_epoch_;
    return;
  }
  journal_[(journal_head_ + journal_size_) % journal_cap_] = d;
  ++journal_size_;
}

bool NetworkSnapshot::deltas_since(std::uint64_t since_epoch,
                                   std::vector<Delta>& out) const {
  if (since_epoch > epoch_)
    throw std::invalid_argument("deltas_since: epoch from the future");
  if (since_epoch < journal_first_epoch_) {
    // The reader fell behind the ring and must rebuild from scratch — the
    // classic silent performance cliff; leave it in the post-mortem tail.
    obs::FlightRecorder::global().record(
        obs::FlightKind::JournalOverflow, /*sim_time=*/-1.0,
        journal_first_epoch_ - since_epoch, epoch_);
    return false;  // trimmed away
  }
  const auto skip = static_cast<std::size_t>(since_epoch - journal_first_epoch_);
  for (std::size_t i = skip; i < journal_size_; ++i)
    out.push_back(journal_[(journal_head_ + i) % journal_cap_]);
  return true;
}

void NetworkSnapshot::set_delta_journal_capacity(std::size_t capacity) {
  journal_.clear();
  journal_cap_ = capacity;
  journal_head_ = 0;
  journal_size_ = 0;
  journal_first_epoch_ = epoch_;
}

void NetworkSnapshot::notify_node_added(topo::NodeId n) {
  if (static_cast<std::size_t>(n) != cpu_.size() ||
      static_cast<std::size_t>(n) + 1 != graph_->node_count())
    throw std::invalid_argument(
        "notify_node_added: notifications must follow additions in order");
  cpu_.push_back(0.0);
  free_memory_.push_back(0.0);
  if (graph_->is_compute(n)) {
    cpu_.back() = 1.0;
    free_memory_.back() = graph_->node(n).memory_bytes;
  }
  Delta d;
  d.kind = DeltaKind::NodeAdded;
  d.node = n;
  record(d);
}

void NetworkSnapshot::notify_node_removed(topo::NodeId n) {
  if (n < 0 || static_cast<std::size_t>(n) >= cpu_.size())
    throw std::invalid_argument("notify_node_removed: node out of range");
  cpu_[static_cast<std::size_t>(n)] = 0.0;
  free_memory_[static_cast<std::size_t>(n)] = 0.0;
  Delta d;
  d.kind = DeltaKind::NodeRemoved;
  d.node = n;
  record(d);
}

void NetworkSnapshot::notify_link_added(topo::LinkId l) {
  if (static_cast<std::size_t>(l) != link_count() ||
      static_cast<std::size_t>(l) + 1 != graph_->link_count())
    throw std::invalid_argument(
        "notify_link_added: notifications must follow additions in order");
  const topo::Link& lk = graph_->link(l);
  bw_dir_.push_back(lk.capacity_ab);
  bw_dir_.push_back(lk.capacity_ba);
  Delta d;
  d.kind = DeltaKind::LinkAdded;
  d.link = l;
  d.value = bw(l);
  record(d);
}

void NetworkSnapshot::notify_link_removed(topo::LinkId l) {
  if (l < 0 || static_cast<std::size_t>(l) >= link_count())
    throw std::invalid_argument("notify_link_removed: link out of range");
  bw_dir_[static_cast<std::size_t>(l) * 2 + 0] = 0.0;
  bw_dir_[static_cast<std::size_t>(l) * 2 + 1] = 0.0;
  Delta d;
  d.kind = DeltaKind::LinkRemoved;
  d.link = l;
  record(d);
}

double NetworkSnapshot::cpu_reference(topo::NodeId n,
                                      double reference_capacity) const {
  if (reference_capacity <= 0.0)
    throw std::invalid_argument("cpu_reference: reference must be > 0");
  return cpu(n) * graph_->node(n).cpu_capacity / reference_capacity;
}

double NetworkSnapshot::bwfactor(topo::LinkId l) const {
  double peak = maxbw(l);
  return peak > 0.0 ? bw(l) / peak : 0.0;
}

double NetworkSnapshot::bw_reference(topo::LinkId l,
                                     double reference_capacity) const {
  if (reference_capacity <= 0.0)
    throw std::invalid_argument("bw_reference: reference must be > 0");
  return bw(l) / reference_capacity;
}

void NetworkSnapshot::check_node_write(topo::NodeId n, const char* what) const {
  if (n < 0 || static_cast<std::size_t>(n) >= cpu_.size())
    reject_write(what, "node out of range");
  if (!graph_->is_compute(n)) reject_write(what, "not a compute node");
}

void NetworkSnapshot::set_free_memory(topo::NodeId n, double bytes) {
  check_node_write(n, "set_free_memory");
  if (!std::isfinite(bytes))
    throw std::invalid_argument("set_free_memory: bytes must be finite");
  if (bytes < 0.0) bytes = 0.0;
  free_memory_[static_cast<std::size_t>(n)] = bytes;
  Delta d;
  d.kind = DeltaKind::NodeMemory;
  d.node = n;
  d.value = bytes;
  record(d);
}

void NetworkSnapshot::set_cpu(topo::NodeId n, double fraction) {
  check_node_write(n, "set_cpu");
  if (!(fraction >= 0.0 && fraction <= 1.0))  // also rejects NaN
    throw std::invalid_argument("set_cpu: fraction must be in [0,1]");
  cpu_[static_cast<std::size_t>(n)] = fraction;
  Delta d;
  d.kind = DeltaKind::NodeLoad;
  d.node = n;
  d.value = fraction;
  record(d);
}

void NetworkSnapshot::set_loadavg(topo::NodeId n, double loadavg) {
  if (loadavg < 0.0) loadavg = 0.0;
  set_cpu(n, 1.0 / (1.0 + loadavg));
}

void NetworkSnapshot::check_bw_write(topo::LinkId l, double bits_per_second,
                                     const char* what) const {
  if (l < 0 || static_cast<std::size_t>(l) >= link_count())
    reject_write(what, "link out of range");
  if (!std::isfinite(bits_per_second) || bits_per_second < 0.0)
    reject_write(what, "bandwidth must be finite and >= 0");
}

void NetworkSnapshot::set_bw(topo::LinkId l, double bits_per_second) {
  check_bw_write(l, bits_per_second, "set_bw");
  bw_dir_[static_cast<std::size_t>(l) * 2 + 0] = bits_per_second;
  bw_dir_[static_cast<std::size_t>(l) * 2 + 1] = bits_per_second;
  Delta d;
  d.kind = DeltaKind::LinkBandwidth;
  d.link = l;
  d.value = bits_per_second;
  record(d);
}

void NetworkSnapshot::set_bw_dir(topo::LinkId l, bool forward,
                                 double bits_per_second) {
  check_bw_write(l, bits_per_second, "set_bw_dir");
  bw_dir_[static_cast<std::size_t>(l) * 2 + (forward ? 0 : 1)] = bits_per_second;
  Delta d;
  d.kind = DeltaKind::LinkBandwidth;
  d.link = l;
  d.value = bw(l);
  record(d);
}

double NetworkSnapshot::path_bw(const std::vector<topo::LinkId>& links) const {
  double b = std::numeric_limits<double>::infinity();
  for (topo::LinkId l : links) b = std::min(b, bw(l));
  return b;
}

void apply_synthetic_load(NetworkSnapshot& snap, std::uint64_t seed,
                          double max_loadavg, double max_utilisation) {
  if (max_loadavg < 0.0 || max_utilisation < 0.0 || max_utilisation > 1.0)
    throw std::invalid_argument(
        "apply_synthetic_load: max_loadavg must be >= 0 and max_utilisation "
        "in [0,1]");
  util::Rng rng(seed);
  const topo::TopologyGraph& g = snap.graph();
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    auto n = static_cast<topo::NodeId>(i);
    if (g.is_compute(n)) snap.set_loadavg(n, rng.uniform(0.0, max_loadavg));
  }
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    auto id = static_cast<topo::LinkId>(l);
    if (g.link_removed(id)) continue;
    snap.set_bw(id, snap.maxbw(id) * (1.0 - rng.uniform(0.0, max_utilisation)));
  }
}

NetworkSnapshot project_snapshot(const NetworkSnapshot& parent,
                                 const topo::LogicalSubgraph& sub) {
  NetworkSnapshot out(sub.graph);
  for (std::size_t i = 0; i < sub.parent_node.size(); ++i) {
    auto sub_id = static_cast<topo::NodeId>(i);
    if (!sub.graph.is_compute(sub_id)) continue;
    out.set_cpu(sub_id, parent.cpu(sub.parent_node[i]));
    out.set_free_memory(sub_id, parent.free_memory(sub.parent_node[i]));
  }
  for (std::size_t l = 0; l < sub.parent_link.size(); ++l) {
    auto sub_id = static_cast<topo::LinkId>(l);
    out.set_bw_dir(sub_id, true, parent.bw_dir(sub.parent_link[l], true));
    out.set_bw_dir(sub_id, false, parent.bw_dir(sub.parent_link[l], false));
  }
  return out;
}

}  // namespace netsel::remos
