// Figure 9: normalized throughput with the mixed 10:1 workload in the WAN
// (4 target groups, 1 auxiliary group, 40 clients per group spread over the
// four regions). Expected shape: ByzCast 2-3x the Baseline's throughput.
#include <cstdio>

#include "workload/experiment.hpp"
#include "workload/report.hpp"

int main() {
  using namespace byzcast;
  using namespace byzcast::workload;

  print_header(
      "Figure 9: normalized throughput, mixed 10:1 workload, WAN, 4 groups");

  const auto run = [](Protocol protocol) {
    ExperimentConfig cfg;
    cfg.protocol = protocol;
    cfg.environment = Environment::kWan;
    cfg.num_groups = 4;
    cfg.clients_per_group = 40;  // paper: 40 clients per target group
    cfg.workload.pattern = Pattern::kMixed;
    cfg.warmup = 10 * kSecond;
    cfg.duration = 40 * kSecond;
    cfg.seed = 31;
    if (protocol == Protocol::kByzCast2Level) enable_sidecar_spans(cfg);
    return run_experiment(cfg);
  };

  const ExperimentResult byz = run(Protocol::kByzCast2Level);
  const ExperimentResult base = run(Protocol::kBaseline);

  const double norm = base.throughput > 0 ? byz.throughput / base.throughput
                                          : 0.0;
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"ByzCast", fmt(byz.throughput, 0),
                  fmt(byz.throughput_local, 0), fmt(byz.throughput_global, 0),
                  fmt(norm, 2) + "x"});
  rows.push_back({"Baseline", fmt(base.throughput, 0),
                  fmt(base.throughput_local, 0),
                  fmt(base.throughput_global, 0), "1.00x"});
  print_table({"protocol", "total msg/s", "local msg/s", "global msg/s",
               "normalized"},
              rows);

  std::printf(
      "\nPaper Fig. 9: ByzCast 2x-3x faster than Baseline in throughput "
      "under the mixed workload.\n");
  write_metrics_sidecar("bench_csv/fig9_metrics.json", byz);
  return 0;
}
