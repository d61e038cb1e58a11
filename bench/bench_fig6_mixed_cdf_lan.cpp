// Figure 6: latency CDF with a mixed workload (10:1 local:global) in a LAN,
// 4 target groups. Expected shapes: Baseline's local and global latencies
// are similar (everything is ordered by the root); ByzCast's local latency
// is much lower than its global latency and matches the local-only workload
// (no convoy effect).
#include <cstdio>

#include "workload/experiment.hpp"
#include "workload/report.hpp"

int main() {
  using namespace byzcast;
  using namespace byzcast::workload;

  print_header("Figure 6: latency CDF, mixed 10:1 workload, LAN, 4 groups");

  const auto run = [](Protocol protocol, Pattern pattern) {
    ExperimentConfig cfg;
    cfg.protocol = protocol;
    cfg.num_groups = 4;
    cfg.clients_per_group = 40;  // paper: 160 clients over 4 groups
    cfg.workload.pattern = pattern;
    cfg.warmup = 1 * kSecond;
    cfg.duration = 3 * kSecond;
    cfg.seed = 17;
    if (protocol == Protocol::kByzCast2Level && pattern == Pattern::kMixed) {
      enable_sidecar_spans(cfg);
    }
    return run_experiment(cfg);
  };

  const ExperimentResult base = run(Protocol::kBaseline, Pattern::kMixed);
  const ExperimentResult byz = run(Protocol::kByzCast2Level, Pattern::kMixed);
  // Reference: ByzCast under 100% local traffic (for the no-convoy check).
  const ExperimentResult local_only =
      run(Protocol::kByzCast2Level, Pattern::kLocalOnly);

  std::printf("\n(a) Baseline\n");
  print_cdf("  local", base.latency_local);
  print_cdf("  global", base.latency_global);

  std::printf("\n(b) ByzCast\n");
  print_cdf("  local", byz.latency_local);
  print_cdf("  global", byz.latency_global);

  write_cdf_csv("bench_csv/fig6_baseline_local.csv", base.latency_local);
  write_cdf_csv("bench_csv/fig6_baseline_global.csv", base.latency_global);
  write_cdf_csv("bench_csv/fig6_byzcast_local.csv", byz.latency_local);
  write_cdf_csv("bench_csv/fig6_byzcast_global.csv", byz.latency_global);
  write_metrics_sidecar("bench_csv/fig6_metrics.json", byz);

  std::printf("\nConvoy-effect check (ByzCast local latency, median):\n");
  std::printf("  with 10%% global traffic : %.2f ms\n",
              byz.latency_local.median_ms());
  std::printf("  with 100%% local traffic: %.2f ms\n",
              local_only.latency_local.median_ms());

  std::printf(
      "\nPaper Fig. 6: Baseline local ~= global; ByzCast local far below "
      "global up to the 99.5th percentile, and unaffected by the global "
      "traffic (no convoy effect).\n");
  return 0;
}
