// Figure 10: latency CDF with 40 clients per group and 10% global messages
// in the WAN. Expected shapes: ByzCast local latency 2x-4x below Baseline's;
// global latency similar for both; ByzCast local unaffected by global
// traffic (no convoy effect).
#include <cstdio>

#include "workload/experiment.hpp"
#include "workload/report.hpp"

int main() {
  using namespace byzcast;
  using namespace byzcast::workload;

  print_header(
      "Figure 10: latency CDF, mixed 10:1 workload, WAN, 40 clients/group");

  const auto run = [](Protocol protocol, Pattern pattern) {
    ExperimentConfig cfg;
    cfg.protocol = protocol;
    cfg.environment = Environment::kWan;
    cfg.num_groups = 4;
    cfg.clients_per_group = 40;
    cfg.workload.pattern = pattern;
    cfg.warmup = 10 * kSecond;
    cfg.duration = 40 * kSecond;
    cfg.seed = 37;
    if (protocol == Protocol::kByzCast2Level && pattern == Pattern::kMixed) {
      enable_sidecar_spans(cfg);
    }
    return run_experiment(cfg);
  };

  const ExperimentResult byz = run(Protocol::kByzCast2Level, Pattern::kMixed);
  const ExperimentResult base = run(Protocol::kBaseline, Pattern::kMixed);
  const ExperimentResult byz_local_only =
      run(Protocol::kByzCast2Level, Pattern::kLocalOnly);

  std::printf("\nByzCast:\n");
  print_cdf("  local", byz.latency_local);
  print_cdf("  global", byz.latency_global);
  std::printf("\nBaseline:\n");
  print_cdf("  local", base.latency_local);
  print_cdf("  global", base.latency_global);

  write_cdf_csv("bench_csv/fig10_byzcast_local.csv", byz.latency_local);
  write_cdf_csv("bench_csv/fig10_byzcast_global.csv", byz.latency_global);
  write_cdf_csv("bench_csv/fig10_baseline_local.csv", base.latency_local);
  write_cdf_csv("bench_csv/fig10_baseline_global.csv", base.latency_global);
  write_metrics_sidecar("bench_csv/fig10_metrics.json", byz);

  std::printf("\nMedians (ms):\n");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"ByzCast", fmt(byz.latency_local.median_ms(), 0),
                  fmt(byz.latency_global.median_ms(), 0)});
  rows.push_back({"Baseline", fmt(base.latency_local.median_ms(), 0),
                  fmt(base.latency_global.median_ms(), 0)});
  print_table({"protocol", "local median", "global median"}, rows);

  std::printf(
      "\nConvoy-effect check: ByzCast local median with 10%% globals = %.0f "
      "ms vs %.0f ms with 100%% local traffic.\n",
      byz.latency_local.median_ms(),
      byz_local_only.latency_local.median_ms());
  std::printf(
      "\nPaper Fig. 10: ByzCast local 2x-4x below Baseline; global similar "
      "for both; no convoy effect on ByzCast's local messages.\n");
  return 0;
}
