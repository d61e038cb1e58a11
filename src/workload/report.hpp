// Plain-text reporting helpers shared by the benchmark binaries: aligned
// series tables (throughput / latency rows as the paper's figures) and CDF
// dumps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "workload/experiment.hpp"

namespace byzcast::workload {

/// Prints "== title ==" section header.
void print_header(const std::string& title);

/// Prints one table: `columns` are headers, each row a vector of
/// preformatted cells.
void print_table(const std::vector<std::string>& columns,
                 const std::vector<std::vector<std::string>>& rows);

/// Formats a double with `precision` decimals.
[[nodiscard]] std::string fmt(double value, int precision = 1);

/// Prints a latency CDF as "latency_ms cumulative_fraction" pairs.
void print_cdf(const std::string& label, const LatencyRecorder& recorder,
               std::size_t max_points = 20);

/// Writes a CDF as CSV ("latency_ms,cdf") to `path`, creating parent
/// directories. Benches use this to emit plottable data under bench_csv/.
void write_cdf_csv(const std::string& path, const LatencyRecorder& recorder,
                   std::size_t max_points = 200);

/// Writes a generic series table as CSV to `path`.
void write_series_csv(const std::string& path,
                      const std::vector<std::string>& columns,
                      const std::vector<std::vector<std::string>>& rows);

/// Writes the machine-readable metrics sidecar for one experiment run as
/// JSON: the whole MetricsRegistry (per-group a-delivery counters,
/// per-replica CPU-busy / queue-depth timeseries, batch-size histograms),
/// run summary numbers, and a "trace" section built from the run's spans:
/// span counts and the critical-path hops of the first complete global
/// message (null without a SpanLog). Benches emit this next to their CSVs;
/// tools/plot_benches.py consumes it. No-op (removing any stale file is NOT
/// attempted) when the run had observability disabled.
void write_metrics_sidecar(const std::string& path,
                           const ExperimentResult& result);

/// Sampling rate of the spans behind a metrics sidecar's "trace" section.
constexpr std::uint32_t kSidecarSpanSampleEvery = 64;

/// Turns on the sampled span tracing a metrics sidecar's "trace" section is
/// built from. Spans never move simulated time: the run's figures are the
/// same as without them.
inline void enable_sidecar_spans(ExperimentConfig& cfg) {
  cfg.span_tracing = true;
  cfg.span_sample_every = kSidecarSpanSampleEvery;
}

/// Writes the deterministic span sidecar (schema "byzcast-spans-v1") for a
/// run with span tracing on: per-message critical-path breakdowns sorted by
/// message id, local/global aggregates, per-tree-edge latency percentiles
/// and monitor violation counts. All times are integer nanoseconds, so the
/// file is byte-identical across same-seed simulation runs. No-op when the
/// run had no SpanLog. `f` selects the representative replica per group
/// (the (f+1)-th earliest a-delivery — the copy completing a reply quorum).
void write_span_sidecar(const std::string& path,
                        const ExperimentResult& result, int f);

/// Writes the SpanLog as Chrome trace-event JSON — load in Perfetto
/// (ui.perfetto.dev) to browse one track per replica, one process per
/// group. No-op when the run had no SpanLog.
void write_chrome_trace(const std::string& path,
                        const ExperimentResult& result);

/// Prints the per-class latency-breakdown table (end-to-end p50/p99 and the
/// queueing / cpu / network / quorum-wait component medians) reconstructed
/// from the run's spans. No-op without a SpanLog.
void print_latency_breakdown(const ExperimentResult& result, int f);

}  // namespace byzcast::workload
