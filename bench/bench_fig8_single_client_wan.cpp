// Figure 8: single-client latency in the 4-region EC2 WAN (Table I
// latencies), local and global messages. Expected shapes: ByzCast local ~=
// BFT-SMaRt; ByzCast global ~2x local (the message is totally ordered by
// the auxiliary group before reaching the targets); Baseline pays the double
// ordering even for local messages.
#include <cstdio>

#include "workload/experiment.hpp"
#include "workload/report.hpp"

namespace {

using namespace byzcast;
using namespace byzcast::workload;

ExperimentResult run(Protocol protocol, Pattern pattern) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.environment = Environment::kWan;
  cfg.num_groups = 4;
  cfg.clients_per_group = 1;  // one client per group, spread over regions
  cfg.workload.pattern = pattern;
  cfg.warmup = 5 * kSecond;
  cfg.duration = 60 * kSecond;
  cfg.seed = 29;
  // The ByzCast global run feeds the metrics sidecar.
  if (protocol == Protocol::kByzCast2Level &&
      pattern == Pattern::kGlobalUniformPairs) {
    enable_sidecar_spans(cfg);
  }
  return run_experiment(cfg);
}

}  // namespace

int main() {
  print_header(
      "Figure 8: single-client latency in WAN (4 groups, one replica per "
      "region CA/VA/EU/JP)");

  const auto bft = run(Protocol::kBftSmart, Pattern::kLocalOnly);
  const auto byz_local = run(Protocol::kByzCast2Level, Pattern::kLocalOnly);
  const auto byz_global =
      run(Protocol::kByzCast2Level, Pattern::kGlobalUniformPairs);
  const auto base_local = run(Protocol::kBaseline, Pattern::kLocalOnly);
  const auto base_global =
      run(Protocol::kBaseline, Pattern::kGlobalUniformPairs);

  std::vector<std::vector<std::string>> rows;
  const auto row = [](const char* name, const LatencyRecorder& rec) {
    return std::vector<std::string>{name, fmt(rec.median_ms(), 0) + " ms",
                                    fmt(rec.percentile_ms(95), 0) + " ms"};
  };
  rows.push_back(row("BFT-SMaRt", bft.latency_all));
  rows.push_back(row("ByzCast local", byz_local.latency_local));
  rows.push_back(row("ByzCast global", byz_global.latency_global));
  rows.push_back(row("Baseline local", base_local.latency_local));
  rows.push_back(row("Baseline global", base_global.latency_global));
  print_table({"protocol/class", "median", "p95"}, rows);

  const double ratio = byz_global.latency_global.median_ms() /
                       byz_local.latency_local.median_ms();
  std::printf("\nByzCast global/local median ratio: %.2fx\n", ratio);
  std::printf(
      "\nPaper Fig. 8: ByzCast local as good as BFT-SMaRt; global about "
      "twice the local value; Baseline pays double ordering for every "
      "message.\n");
  write_metrics_sidecar("bench_csv/fig8_metrics.json", byz_global);
  return 0;
}
