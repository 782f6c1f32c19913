#include "sim/trace.hpp"

#include <sstream>
#include <stdexcept>

namespace netsel::sim {

TraceRecorder::TraceRecorder(NetworkSim& net, TraceConfig cfg)
    : net_(net), cfg_(cfg), hosts_(net.topology().compute_nodes()) {
  if (cfg_.interval <= 0.0)
    throw std::invalid_argument("TraceRecorder: interval must be > 0");
  width_ = (cfg_.hosts ? hosts_.size() : 0) +
           (cfg_.links ? net_.topology().link_count() * 2 : 0);
  if (width_ == 0)
    throw std::invalid_argument("TraceRecorder: nothing selected to record");
}

void TraceRecorder::start() {
  if (running_) return;
  running_ = true;
  ++epoch_;
  sample();
  schedule_next();
}

void TraceRecorder::stop() {
  running_ = false;
  ++epoch_;
}

void TraceRecorder::schedule_next() {
  std::uint64_t my_epoch = epoch_;
  net_.sim().schedule_after(cfg_.interval, [this, my_epoch] {
    if (!running_ || epoch_ != my_epoch) return;
    sample();
    schedule_next();
  });
}

void TraceRecorder::sample() {
  times_.push_back(net_.sim().now());
  if (cfg_.hosts) {
    for (topo::NodeId n : hosts_) values_.push_back(net_.host(n).load_average());
  }
  if (cfg_.links) {
    for (std::size_t l = 0; l < net_.topology().link_count(); ++l) {
      auto id = static_cast<topo::LinkId>(l);
      values_.push_back(net_.network().link_used_bw(id, true));
      values_.push_back(net_.network().link_used_bw(id, false));
    }
  }
}

std::vector<std::string> TraceRecorder::columns() const {
  std::vector<std::string> cols{"time"};
  if (cfg_.hosts) {
    for (topo::NodeId n : hosts_)
      cols.push_back("load:" + std::string(net_.topology().node_name(n)));
  }
  if (cfg_.links) {
    for (std::size_t l = 0; l < net_.topology().link_count(); ++l) {
      const auto name =
          net_.topology().link_name(static_cast<topo::LinkId>(l));
      cols.push_back("bw:" + name + ":fwd");
      cols.push_back("bw:" + name + ":rev");
    }
  }
  return cols;
}

double TraceRecorder::value(std::size_t row, std::size_t col) const {
  if (row >= times_.size() || col >= width_)
    throw std::out_of_range("TraceRecorder::value");
  return values_[row * width_ + col];
}

void TraceRecorder::write_csv(std::ostream& os) const {
  auto cols = columns();
  for (std::size_t c = 0; c < cols.size(); ++c) os << (c ? "," : "") << cols[c];
  os << "\n";
  for (std::size_t r = 0; r < times_.size(); ++r) {
    os << times_[r];
    for (std::size_t c = 0; c < width_; ++c) os << "," << values_[r * width_ + c];
    os << "\n";
  }
}

std::string TraceRecorder::to_csv() const {
  std::ostringstream os;
  write_csv(os);
  return os.str();
}

}  // namespace netsel::sim
