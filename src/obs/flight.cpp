#include "obs/flight.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "obs/metrics.hpp"

namespace netsel::obs {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

obs::Counter& flight_events_counter() {
  static obs::Counter& c = Registry::global().counter("obs.flight.events");
  return c;
}

}  // namespace

const char* flight_kind_name(FlightKind k) {
  switch (k) {
    case FlightKind::Admit: return "admit";
    case FlightKind::Reject: return "reject";
    case FlightKind::Place: return "place";
    case FlightKind::Conflict: return "conflict";
    case FlightKind::Infeasible: return "infeasible";
    case FlightKind::Timeout: return "timeout";
    case FlightKind::Complete: return "complete";
    case FlightKind::Rebalance: return "rebalance";
    case FlightKind::LadderTransition: return "ladder";
    case FlightKind::JournalOverflow: return "journal-overflow";
    case FlightKind::SweepDrop: return "sweep-drop";
    case FlightKind::SensorOutage: return "sensor-outage";
    case FlightKind::NonFiniteForecast: return "nonfinite-forecast";
    case FlightKind::Custom: return "custom";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : mask_(round_up_pow2(std::max<std::size_t>(capacity, 2)) - 1),
      slots_(std::make_unique<FlightEvent[]>(mask_ + 1)) {}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder r;
  return r;
}

void FlightRecorder::record(FlightKind kind, double sim_time, std::uint64_t a,
                            std::uint64_t b, std::string_view detail) {
  flight_events_counter().inc();
  std::lock_guard<std::mutex> lock(mu_);
  FlightEvent& ev = slots_[++next_ & mask_];
  ev.seq = next_;
  ev.sim_time = sim_time;
  ev.kind = kind;
  ev.a = a;
  ev.b = b;
  const std::size_t n = std::min(detail.size(), sizeof(ev.detail) - 1);
  // An empty view may carry a null data(), which memcpy must not be given.
  if (n > 0) std::memcpy(ev.detail, detail.data(), n);
  ev.detail[n] = '\0';
}

std::vector<FlightEvent> FlightRecorder::tail(std::size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t window = std::min<std::uint64_t>({next_, mask_ + 1, n});
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(window));
  for (std::uint64_t seq = next_ - window + 1; seq <= next_; ++seq)
    out.push_back(slots_[seq & mask_]);
  return out;
}

std::uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  next_ = 0;
}

void FlightRecorder::dump(std::ostream& os, std::size_t last_n) const {
  const std::vector<FlightEvent> events = tail(last_n);
  os << "== flight recorder: last " << events.size() << " of " << recorded()
     << " events ==\n";
  char line[160];
  for (const FlightEvent& ev : events) {
    std::snprintf(line, sizeof line,
                  "flight[%llu] t=%.3f %-16s a=%llu b=%llu %s\n",
                  static_cast<unsigned long long>(ev.seq), ev.sim_time,
                  flight_kind_name(ev.kind),
                  static_cast<unsigned long long>(ev.a),
                  static_cast<unsigned long long>(ev.b), ev.detail);
    os << line;
  }
}

}  // namespace netsel::obs
