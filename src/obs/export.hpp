#pragma once
// Exporters for the obs registry: a single JSON document for tooling
// (scripts/check_metrics_json.py validates its schema), and Chrome
// trace_event format loadable in chrome://tracing or https://ui.perfetto.dev.

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"

namespace netsel::obs {

/// Identifier stamped into the JSON document so schema drift fails fast.
inline constexpr const char* kMetricsSchema = "netsel-metrics-v1";

/// Single JSON document:
///   {"schema":"netsel-metrics-v1","counters":{...},"gauges":{...},
///    "histograms":{name:{"bounds":[...],"counts":[...],"count":n,
///                        "sum":s,"min":m,"max":M}},"spans":n}
void write_json(const Registry& r, std::ostream& os);
std::string to_json(const Registry& r);

/// Chrome trace_event JSON ({"traceEvents":[...]}): every recorded span as
/// a complete ("ph":"X") event with wall-clock ts/dur in microseconds and
/// sim-time plus string args under "args".
void write_chrome_trace(const Registry& r, std::ostream& os);
std::string to_chrome_trace(const Registry& r);

class TimeSeriesRecorder;
class JobTraceRecorder;

/// As write_chrome_trace, with the time-dimension tracks merged into the
/// same traceEvents array: the recorder's counter curves ("ph":"C", pid 2,
/// sim-time axis) so Perfetto shows the service breathing, and the per-job
/// span tracks (pid 3, one tid per job). Either pointer may be null.
void write_chrome_trace(const Registry& r, std::ostream& os,
                        const TimeSeriesRecorder* ts,
                        const JobTraceRecorder* jobs);

}  // namespace netsel::obs
