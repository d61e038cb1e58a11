#include "workload/sweep.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace byzcast::workload {

namespace {

std::uint64_t sum_monitor_violations(const ExperimentResult& result) {
  return result.metrics ? result.metrics->counter_sum("monitor.violations.")
                        : 0;
}

}  // namespace

void classify_saturation(std::vector<SweepPoint>& points, double p99_factor,
                         double goodput_floor) {
  if (points.empty()) return;
  // The plateau is the service latency floor: the lowest offered rate's
  // p99, i.e. what the system delivers when queueing is negligible.
  const double plateau_p99 = points.front().p99_ms;
  for (SweepPoint& pt : points) {
    const bool latency_blown =
        plateau_p99 > 0.0 && pt.p99_ms > p99_factor * plateau_p99;
    const bool goodput_short = pt.goodput_ratio < goodput_floor;
    // A point that completed nothing at all is trivially saturated (or the
    // run was misconfigured); either way it is not a sustainable rate.
    pt.saturated = latency_blown || goodput_short || pt.completed == 0;
  }
}

std::size_t first_saturated(const std::vector<SweepPoint>& pts) {
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].saturated) return i;
  }
  return kNoKnee;
}

SweepPoint measure_point(const ExperimentConfig& base, double rate) {
  ExperimentConfig config = base;
  config.open_loop_total_rate = rate;
  const ExperimentResult result = run_experiment(config);
  SweepPoint pt;
  pt.offered = rate;
  pt.throughput = result.throughput;
  pt.goodput_ratio = rate > 0.0 ? result.throughput / rate : 0.0;
  pt.p50_ms = result.latency_all.percentile_ms(50.0);
  pt.p99_ms = result.latency_all.percentile_ms(99.0);
  pt.completed = result.completed;
  pt.monitor_violations = sum_monitor_violations(result);
  pt.sample_overflow = result.latency_all.overflow() +
                       result.latency_local.overflow() +
                       result.latency_global.overflow();
  return pt;
}

SweepCurve run_sweep(const ExperimentConfig& base,
                     const SweepSettings& settings, const std::string& label) {
  BZC_EXPECTS(!settings.rates.empty());
  BZC_EXPECTS(std::is_sorted(settings.rates.begin(), settings.rates.end()));

  SweepCurve curve;
  curve.label = label;
  for (const double rate : settings.rates) {
    curve.points.push_back(measure_point(base, rate));
  }
  classify_saturation(curve.points, settings.knee_p99_factor,
                      settings.knee_goodput_floor);

  std::size_t knee_idx = first_saturated(curve.points);
  if (knee_idx == kNoKnee) {
    // The whole grid is healthy: report the top rate as the best measured
    // sustainable load, no knee.
    curve.max_unsaturated_rate = curve.points.back().offered;
    return curve;
  }
  if (knee_idx == 0) {
    // Even the lowest rate saturates (goodput collapse — the plateau rule
    // cannot fire on the first point by construction): no healthy bracket
    // to bisect, the knee IS the first grid point.
    curve.knee_found = true;
    curve.knee = curve.points.front();
    return curve;
  }

  // Bisect between the last healthy and first saturated rates: each probe
  // re-classifies against the existing plateau so the bracket shrinks by
  // half per iteration. Probes are appended to the curve (sorted at the
  // end) — they are real measurements, worth keeping in the artifact.
  double lo = curve.points[knee_idx - 1].offered;  // healthy
  double hi = curve.points[knee_idx].offered;      // saturated
  SweepPoint knee = curve.points[knee_idx];
  for (int i = 0; i < settings.bisect_iters; ++i) {
    const double mid = (lo + hi) / 2.0;
    SweepPoint probe = measure_point(base, mid);
    std::vector<SweepPoint> scratch = {curve.points.front(), probe};
    classify_saturation(scratch, settings.knee_p99_factor,
                        settings.knee_goodput_floor);
    probe = scratch.back();
    curve.points.push_back(probe);
    if (probe.saturated) {
      hi = mid;
      knee = probe;
    } else {
      lo = mid;
    }
  }

  std::sort(curve.points.begin(), curve.points.end(),
            [](const SweepPoint& a, const SweepPoint& b) {
              return a.offered < b.offered;
            });
  curve.knee_found = true;
  curve.knee = knee;
  curve.max_unsaturated_rate = lo;
  return curve;
}

}  // namespace byzcast::workload
