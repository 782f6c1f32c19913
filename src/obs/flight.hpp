#pragma once
// obs::FlightRecorder — an always-on, fixed-capacity ring of structured
// events, kept so that a failure (a --check violation, a broken invariant)
// can dump the last-N events as a post-mortem.
//
// Unlike the metrics Registry, the flight recorder is NOT gated on
// obs::enabled(): its whole point is to already hold the recent past when
// something goes wrong in a run nobody instrumented. Recording is one
// uncontended mutex plus a bounded memcpy-sized write; events are plain
// structs (no allocation), so the cost per event is tens of nanoseconds at
// decision granularity (admissions, rejections, ladder transitions — never
// per-BFS-step).
//
// Concurrency: one mutex guards the ring. A writer takes its sequence
// number and writes its slot under it, and tail()/dump() copy the slots
// under it, so a reader never sees a half-written event. Events from
// concurrent writers interleave in lock order; the scheduler only records
// from its serial event loop, so its runs produce a deterministic sequence.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace netsel::obs {

/// What happened. Kinds cover the scheduler state machine plus the
/// measurement-path anomalies the post-mortem usually hinges on.
enum class FlightKind : std::uint8_t {
  Admit,            ///< job admitted to the queue (a = job id)
  Reject,           ///< admission refused (a = job id)
  Place,            ///< placement committed (a = job id, b = node count)
  Conflict,         ///< speculative set re-placed serially (a = job id)
  Infeasible,       ///< placement attempt failed (a = job id)
  Timeout,          ///< queued job waited past the timeout (a = job id)
  Complete,         ///< job ran to completion, resources released (a = job)
  Rebalance,        ///< post-release migration (a = job id, b = migrations)
  LadderTransition, ///< tenant degradation rung changed (detail = tenant,
                    ///< a = old rung, b = new rung)
  JournalOverflow,  ///< a delta-journal reader missed too much and must
                    ///< rebuild from scratch (a = epochs missed)
  SweepDrop,        ///< monitor sweep dropped whole (fault injection)
  SensorOutage,     ///< a sensor went down mid-run (a = sensor index)
  NonFiniteForecast,  ///< a snapshot refresh skipped non-finite forecasts
                      ///< (a = writes skipped)
  Custom,           ///< free-form (detail says what)
};

const char* flight_kind_name(FlightKind k);

struct FlightEvent {
  std::uint64_t seq = 0;  ///< 1-based global order of the event
  double sim_time = -1.0; ///< simulated time, -1 when not applicable
  FlightKind kind = FlightKind::Custom;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  char detail[40] = {0};  ///< NUL-terminated, truncated to fit
};

class FlightRecorder {
 public:
  /// Capacity is fixed for the recorder's lifetime; values are rounded up
  /// to a power of two (slot index = seq & mask).
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// The process-wide recorder instrumented call sites use.
  static FlightRecorder& global();

  void record(FlightKind kind, double sim_time, std::uint64_t a = 0,
              std::uint64_t b = 0, std::string_view detail = {});

  /// The newest min(n, recorded, capacity) events, oldest first.
  std::vector<FlightEvent> tail(std::size_t n = SIZE_MAX) const;

  /// Total events ever recorded (including those the ring has dropped).
  std::uint64_t recorded() const;
  std::size_t capacity() const { return mask_ + 1; }

  /// Drop everything recorded so far.
  void clear();

  /// Human-readable post-mortem: one line per event, oldest first.
  ///   flight[seq] t=SIM kind a=A b=B detail
  void dump(std::ostream& os, std::size_t last_n = 64) const;

  static constexpr std::size_t kDefaultCapacity = 256;

 private:
  mutable std::mutex mu_;  // guards slots_ and next_
  std::size_t mask_;
  std::unique_ptr<FlightEvent[]> slots_;
  std::uint64_t next_ = 0;  // seq of the newest event (0: none yet)
};

}  // namespace netsel::obs
