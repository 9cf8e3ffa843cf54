// pygb/obs/export.hpp — fleet-grade metrics export
// (docs/OBSERVABILITY.md).
//
// Two wire formats over the same MetricsSnapshot:
//
//   * metrics_json()       — schema-versioned JSON ("pygb.metrics" v1):
//                            the metrics_to_json() payload wrapped in a
//                            schema envelope plus the flight-recorder
//                            gauges. `pygb_cli --metrics-json`.
//   * metrics_prometheus() — Prometheus text exposition (version 0.0.4):
//                            counters as pygb_<name>_total, log₂
//                            histograms as pygb_<base>_bucket{le=...}
//                            cumulative series with _sum/_count, the
//                            "kernel_ns/<func>/<backend>" family split
//                            into {func,backend} labels.
//                            `pygb_cli --metrics-prom`.
//
// Delivery: on demand (the CLI flags), at exit, and periodically via a
// background flusher — PYGB_METRICS_JSON=<path> / PYGB_METRICS_PROM=<path>
// pick the destinations (written atomically: tmp + rename, so a scraping
// textfile collector never sees a torn file), PYGB_METRICS_INTERVAL_MS
// arms the flusher. Setting either path implicitly enables metrics.
#pragma once

#include <cstdint>
#include <string>

namespace pygb::obs {

/// Schema-versioned JSON snapshot: {"schema":"pygb.metrics",
/// "schema_version":1,"counters":{...},"histograms":{...}}. Counter and
/// histogram keys are the same stable names `pygb_cli --stats-json` and
/// the Prometheus exporter use.
std::string metrics_json();

/// Prometheus text exposition of the same snapshot.
std::string metrics_prometheus();

/// Write `content` to `path` atomically (same-directory tmp + rename).
/// Returns false and fills *error on failure.
bool write_file_atomic(const std::string& path, const std::string& content,
                       std::string* error = nullptr);

/// Flush the armed destinations (PYGB_METRICS_JSON / PYGB_METRICS_PROM or
/// set_export_paths) once, now. Returns the number of files written.
int flush_metrics_files();

/// Programmatic twin of the env knobs ("" disables a destination).
void set_export_paths(const std::string& json_path,
                      const std::string& prom_path);

/// Start the periodic flusher (idempotent; interval <= 0 is ignored).
void start_metrics_flusher(std::int64_t interval_ms);

/// Arm a last-chance flush on SIGTERM/SIGINT (idempotent). std::atexit
/// never runs when a daemon dies to a termination signal, so a supervised
/// process (systemd stop, Kubernetes preStop, ctest timeout) used to exit
/// with an empty or stale metrics file; this handler flushes the armed
/// destinations, restores the previous disposition, and re-raises — so the
/// exit status still says "killed by SIGTERM" and any outer handler
/// (pygb_serve's own graceful drain installs AFTER this and supersedes it)
/// keeps working. Best effort by design: flushing allocates, which is
/// formally async-signal-unsafe; for a process dying anyway the rare
/// torn-flush (the atomic tmp+rename still never publishes a torn FILE)
/// beats the certain loss of the final snapshot.
void install_termination_flush();

}  // namespace pygb::obs
