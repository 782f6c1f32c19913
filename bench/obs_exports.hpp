#pragma once
// The bench binaries' writer for --metrics-json / --chrome-trace. Each
// bench registers the metrics its document must list before calling
// write_obs_exports.

#include <cstdio>
#include <fstream>
#include <ostream>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace netsel::bench {

/// Write the global registry as a metrics JSON document to `metrics_path`
/// and as a Chrome trace to `trace_path`. A null path skips that export.
/// Returns false when a path was not writable.
inline bool write_obs_exports(const char* metrics_path,
                              const char* trace_path) {
  const obs::Registry& r = obs::Registry::global();
  const auto write = [](const char* path, auto&& fn) {
    if (!path) return true;
    std::ofstream f(path);
    if (!f) {
      std::fprintf(stderr, "cannot open %s for writing\n", path);
      return false;
    }
    fn(f);
    std::fprintf(stderr, "wrote %s\n", path);
    return true;
  };
  const bool metrics_ok =
      write(metrics_path, [&](std::ostream& f) { obs::write_json(r, f); });
  const bool trace_ok = write(
      trace_path, [&](std::ostream& f) { obs::write_chrome_trace(r, f); });
  return metrics_ok && trace_ok;
}

}  // namespace netsel::bench
