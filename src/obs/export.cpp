#include "obs/export.hpp"

#include "obs/jobtrace.hpp"
#include "obs/json.hpp"
#include "obs/timeseries.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace netsel::obs {

namespace {

/// Shortest round-trip double rendering that is always valid JSON (no inf /
/// nan — callers keep those out; clamp defensively anyway).
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_histogram_body(const Registry::HistogramView& h, std::ostream& os) {
  os << "{\"bounds\":[";
  for (std::size_t i = 0; i < h.bounds.size(); ++i)
    os << (i ? "," : "") << num(h.bounds[i]);
  os << "],\"counts\":[";
  for (std::size_t i = 0; i < h.counts.size(); ++i)
    os << (i ? "," : "") << h.counts[i];
  os << "],\"count\":" << h.count << ",\"sum\":" << num(h.sum)
     << ",\"min\":" << num(h.min) << ",\"max\":" << num(h.max) << "}";
}

}  // namespace

void write_json(const Registry& r, std::ostream& os) {
  os << "{\n  \"schema\": \"" << kMetricsSchema << "\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : r.counters()) {
    os << (first ? "" : ",") << "\n    " << json_quoted(name) << ": " << v;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : r.gauges()) {
    os << (first ? "" : ",") << "\n    " << json_quoted(name) << ": " << num(v);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& h : r.histograms()) {
    os << (first ? "" : ",") << "\n    " << json_quoted(h.name) << ": ";
    write_histogram_body(h, os);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"spans\": " << r.spans().size()
     << "\n}\n";
}

std::string to_json(const Registry& r) {
  std::ostringstream os;
  write_json(r, os);
  return os.str();
}

namespace {

/// Emit the opening of the traceEvents array plus the registry's span
/// events; callers append further comma-prefixed events and close the array.
void write_chrome_trace_open(const Registry& r, std::ostream& os);

}  // namespace

void write_chrome_trace(const Registry& r, std::ostream& os,
                        const TimeSeriesRecorder* ts,
                        const JobTraceRecorder* jobs) {
  write_chrome_trace_open(r, os);
  if (ts) ts->write_chrome_counters(os);
  if (jobs) jobs->write_chrome_events(os);
  os << "\n]}\n";
}

void write_chrome_trace(const Registry& r, std::ostream& os) {
  write_chrome_trace_open(r, os);
  os << "\n]}\n";
}

namespace {

void write_chrome_trace_open(const Registry& r, std::ostream& os) {
  os << "{\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"netsel\"}}";
  for (const SpanRecord& s : r.spans()) {
    os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"name\":" << json_quoted(s.name)
       << ",\"cat\":" << json_quoted(s.cat)
       << ",\"ts\":" << num(s.ts_us) << ",\"dur\":" << num(s.dur_us)
       << ",\"args\":{";
    bool first = true;
    if (s.sim_begin >= 0.0) {
      os << "\"sim_begin_s\":" << num(s.sim_begin)
         << ",\"sim_end_s\":" << num(s.sim_end);
      first = false;
    }
    for (const auto& [k, v] : s.args) {
      os << (first ? "" : ",") << json_quoted(k) << ":" << json_quoted(v);
      first = false;
    }
    os << "}}";
  }
}

}  // namespace

std::string to_chrome_trace(const Registry& r) {
  std::ostringstream os;
  write_chrome_trace(r, os);
  return os.str();
}

}  // namespace netsel::obs
