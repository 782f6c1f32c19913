#include "obs/flight.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <ostream>
#include <thread>

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
      slots_(std::make_unique<Slot[]>(mask_ + 1)) {}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder r;
  return r;
}

void FlightRecorder::record(FlightKind kind, double sim_time, std::uint64_t a,
                            std::uint64_t b, std::string_view detail) {
  flight_events_counter().inc();
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& s = slots_[seq & mask_];
  // Claim the slot by moving its version to odd (mid-write). Writers whose
  // sequence numbers wrap onto one slot take turns: wait while an older
  // event is mid-write, and drop this one if a newer event already holds
  // the slot, since it would overwrite this one anyway. The acquire orders
  // the payload writes below after the previous holder's.
  std::uint64_t v = s.ver.load(std::memory_order_relaxed);
  for (;;) {
    if (v >= seq * 2) return;
    if (v & 1) {
      std::this_thread::yield();
      v = s.ver.load(std::memory_order_relaxed);
    } else if (s.ver.compare_exchange_weak(v, seq * 2 - 1,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
      break;
    }
  }
  s.ev.seq = seq;
  s.ev.sim_time = sim_time;
  s.ev.kind = kind;
  s.ev.a = a;
  s.ev.b = b;
  const std::size_t n = std::min(detail.size(), sizeof(s.ev.detail) - 1);
  // An empty view may carry a null data(), which memcpy must not be given.
  if (n > 0) std::memcpy(s.ev.detail, detail.data(), n);
  s.ev.detail[n] = '\0';
  // A reader that observes an odd or changed version discards the slot.
  s.ver.store(seq * 2, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::tail(std::size_t n) const {
  const std::uint64_t last = next_.load(std::memory_order_acquire);
  const std::uint64_t window =
      std::min<std::uint64_t>({last, mask_ + 1, n});
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(window));
  for (std::uint64_t seq = last - window + 1; seq <= last; ++seq) {
    const Slot& s = slots_[seq & mask_];
    const std::uint64_t v0 = s.ver.load(std::memory_order_acquire);
    if (v0 != seq * 2) continue;  // overwritten or mid-write
    FlightEvent ev = s.ev;
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.ver.load(std::memory_order_relaxed) != v0) continue;
    out.push_back(ev);
  }
  return out;
}

void FlightRecorder::clear() {
  next_.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i <= mask_; ++i)
    slots_[i].ver.store(0, std::memory_order_relaxed);
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

namespace {

void dump_global_to_stderr() {
  const auto events = FlightRecorder::global().tail(64);
  std::fprintf(stderr, "== flight recorder: last %zu of %llu events ==\n",
               events.size(),
               static_cast<unsigned long long>(
                   FlightRecorder::global().recorded()));
  for (const FlightEvent& ev : events)
    std::fprintf(stderr, "flight[%llu] t=%.3f %-16s a=%llu b=%llu %s\n",
                 static_cast<unsigned long long>(ev.seq), ev.sim_time,
                 flight_kind_name(ev.kind),
                 static_cast<unsigned long long>(ev.a),
                 static_cast<unsigned long long>(ev.b), ev.detail);
}

std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void terminate_with_dump() {
  dump_global_to_stderr();
  if (g_prev_terminate) g_prev_terminate();
  std::abort();
}

void (*g_prev_sigabrt)(int) = SIG_DFL;

void sigabrt_with_dump(int sig) {
  // fprintf after SIGABRT is not strictly async-signal-safe; this is a
  // best-effort post-mortem on the way down, not a recovery path.
  dump_global_to_stderr();
  std::signal(sig, g_prev_sigabrt);
  std::raise(sig);
}

}  // namespace

void FlightRecorder::install_crash_dump() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  g_prev_terminate = std::set_terminate(terminate_with_dump);
  g_prev_sigabrt = std::signal(SIGABRT, sigabrt_with_dump);
  if (g_prev_sigabrt == SIG_ERR) g_prev_sigabrt = SIG_DFL;
}

}  // namespace netsel::obs
